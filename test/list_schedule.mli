(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective

(** The schedule IR as a sorted [send list] — the representation
    {!Schedule} used before its column store, kept as the oracle the
    columnar operations are checked against row for row. Every operation
    is the literal list version: [make] is a stable sort, [shift] and
    [reverse] map and re-sort, [concat] re-sorts the appended lists, [union]
    is [List.merge]. *)

type t = { sends : Schedule.send list; makespan : float }

val make : Schedule.send list -> t
(** Stable sort by [(start, finish)]; raises [Invalid_argument] on a
    negative start or a finish before its start (this oracle predates the
    rejection of non-finite times). *)

val shift : t -> float -> t
val reverse : t -> t
val concat : t -> t -> t
val union : t -> t -> t

val validate_positioned :
  Topology.t ->
  ?forbidden:(int * float) list ->
  precondition:(int * int) list ->
  postcondition:(int * int) list ->
  num_chunks:int ->
  chunk_size:float ->
  t ->
  (unit, string) result
