(* Namespaces of the substrate libraries. *)
open Tacos_topology

(** Collective-algorithm intermediate representation: a set of timed,
    link-assigned chunk transfers.

    This is the common output format of the TACOS synthesizer and the input
    the validator and analyses work on. A schedule is exactly the "static
    path of each chunk" the paper defines a collective algorithm to be
    (§II-B), with the TEN timing made explicit: each send occupies one
    physical link for one interval, and a link carries at most one chunk at a
    time (the congestion-freedom invariant of §IV-B). *)

(** One send — the row view of a schedule. *)
type send = {
  chunk : int;
  edge : int;  (** physical link id in the topology *)
  src : int;
  dst : int;
  start : float;
  finish : float;
}

type columns = {
  chunks : int array;
  edges : int array;  (** physical link ids *)
  srcs : int array;
  dsts : int array;
  starts : float array;
  finishes : float array;
}
(** The send store: one array per field, row [i] of every array together
    being one send. *)

type t = private { sends : columns; makespan : float }
(** A schedule is one {!columns} store, sorted once when it is built: rows
    ascend by [(start, finish)], and rows tied on both keep the order the
    constructor documents. [makespan] is the largest finish time (0 for the
    empty schedule). Every operation below keeps that order instead of
    re-sorting. The arrays of a schedule may be shared with the schedules
    derived from it, so they must not be written to.

    Costs, for [n] rows: building ({!make}, {!of_sends}, {!Builder.build})
    is one check pass plus a natural merge sort — O(n) on rows already in
    order, O(n log r) for [r] sorted runs; {!shift} and {!concat} are O(n)
    with no comparison sort; {!merge} of [k] sorted parts is O(n log k);
    {!reverse} is one index sort of the mirrored keys; the validators, the
    analyses and the codec are single passes over the columns. *)

type schedule = t

val make : columns -> t
(** Check every row and sort the store stably by [(start, finish)]: rows
    that tie keep their order in the store. The store is taken over, not
    copied, when it is already in order. Raises
    [Invalid_argument "Schedule.make: bad send interval"] on a row whose
    start is negative or not finite or whose finish is before its start or
    not finite, and [Invalid_argument] on columns of unequal length. *)

val of_sends : send list -> t
(** {!make} on a list of rows; tied rows keep their list order. *)

(** A growable store that rows are pushed into one at a time — how the
    synthesizer, the TEN, the router and the JSON reader emit schedules. *)
module Builder : sig
  type t

  val create : unit -> t

  val push :
    t -> chunk:int -> edge:int -> src:int -> dst:int -> start:float -> finish:float -> unit

  val build : t -> schedule
  (** The schedule of every row pushed so far ({!make}'s checks and
      errors). Rows tied on [(start, finish)] come out in reverse push
      order — the order {!of_sends} gives a list built by prepending each
      row. *)
end

val empty : t
val num_sends : t -> int

val iter : (send -> unit) -> t -> unit
(** The rows in time order. *)

val to_list : t -> send list

val filter : (send -> bool) -> t -> t
(** The rows that satisfy the predicate, in their order; the makespan is
    recomputed from them. *)

val eps_for : float -> float
(** Magnitude-scaled tolerance for floating-point time comparisons:
    [1e-9 + 1e-9 * |t|]. Shared by the validator and the router's
    reservation calendars so "free slot" and "congestion-free" agree. *)

val shift : t -> float -> t
(** Translate every send in time: an offset added to the two time columns,
    the other columns shared, and no comparison sort: rounding can only
    create ties, never invert two starts, so the rows stay in order (the
    rare finish order broken among new ties is mended by {!make}'s run
    merge). Raises like {!make} when a time goes negative. *)

val reverse : t -> t
(** Time-mirror the schedule and swap each send's direction, keeping the
    link id — the §IV-E reversal that turns an All-Gather on the reversed
    topology into a Reduce-Scatter on the original one (Fig. 11). One index
    sort on the mirrored [(start, finish)] keys; ties keep their order in
    [t]. *)

val concat : t -> t -> t
(** [concat a b] runs [b] after [a] ([b] shifted by [a.makespan]) — how
    All-Reduce is assembled from Reduce-Scatter and All-Gather. It is
    {!union} of [a] and the shifted [b], which is an append since every row
    of [b] then starts at or after every row of [a]. *)

val merge : t list -> t
(** Stable k-way merge of schedules overlaid as-is (no shifting): the rows
    in [(start, finish)] order, ties broken by part index and then by
    position within the part — what a stable sort of the concatenation
    gives — with the largest makespan. O(n log k) for [k] parts, O(n) when
    the parts follow one another in time. The caller is responsible for
    the parts being disjoint in link occupancy where they overlap in time.
    Hierarchical plans compose their lifted sub-schedules with it. *)

val union : t -> t -> t
(** [union a b] is [merge [a; b]]: [a] wins ties. *)

val phase_of_send : reduce_scatter:t -> send -> string
(** Which phase of a {!concat}-assembled All-Reduce a send belongs to:
    ["all-gather"] when it starts at or after the Reduce-Scatter makespan
    (within {!eps_for}), ["reduce-scatter"] otherwise. Used to tag engine
    transfers so the critical-path analyzer can attribute the makespan per
    collective phase. *)

val validate_positioned :
  Topology.t ->
  ?forbidden:(int * float) list ->
  precondition:(int * int) list ->
  postcondition:(int * int) list ->
  num_chunks:int ->
  chunk_size:float ->
  t ->
  (unit, string) result
(** The validator of {!validate} against explicit [(npu, chunk)] position
    lists instead of a {!Spec.t}-derived pre/postcondition — the form used by
    mid-flight schedule repair, where the "precondition" is wherever the
    chunks actually were when the fault landed. Non-combining semantics.
    [forbidden] lists [(link, dead_from)] pairs: a send overlapping a link's
    dead interval fails validation, which lets composite repaired schedules
    (kept prefix + patches) validate on the {e healthy} topology. One pass
    over the rows; link occupancy is an array indexed by link. *)

val validate_reduction :
  Topology.t ->
  ?forbidden:(int * float) list ->
  contributions:(int * int) list ->
  postcondition:(int * int) list ->
  num_chunks:int ->
  chunk_size:float ->
  combining:t ->
  pull:t ->
  unit ->
  (unit, string) result
(** Reduction-aware positional validation — the validator mid-flight repair
    of combining collectives uses. [contributions] lists [(npu, chunk)]:
    which ranks contribute an input to each chunk (each NPU starts holding
    exactly its own contribution). The plan is structural: [combining] sends
    move partial sums — the source's accumulated contribution set is spent at
    the send's start and merged (checked disjoint, so no contribution is
    absorbed twice) into the destination at its finish; [pull] sends
    replicate fully-reduced values — the source must hold every contribution
    when the send starts. Both schedules share one clock, so kept prefixes
    and repair patches from several fault epochs validate as one composite.
    Physical legality (links exist, α-β durations, one chunk per link at a
    time, [forbidden] intervals) is checked over the union. The
    [postcondition] requires the named NPUs to hold the fully reduced chunk. *)

val validate : Topology.t -> Spec.t -> t -> (unit, string) result
(** Check physical legality and semantic correctness:
    - every send's link exists and matches its endpoints;
    - a send's duration covers the α-β cost of one chunk;
    - no two sends overlap on the same link;
    - the chunk is present at the source when a send starts (causality from
      the precondition plus earlier receives);
    - the postcondition holds at the end.
    Combining patterns are checked by validating the reversed schedule against
    the reversed spec on the reversed topology. For the composite
    [All_reduce] use {!validate_all_reduce}. *)

val validate_all_reduce :
  Topology.t -> Spec.t -> reduce_scatter:t -> all_gather:t -> (unit, string) result
(** Validate an All-Reduce assembled as a Reduce-Scatter phase followed by an
    All-Gather phase (the All-Gather is expected to start after the
    Reduce-Scatter's makespan, as produced by {!concat}). The All-Gather
    rows are checked in place at an offset of minus the Reduce-Scatter
    makespan, without a shifted copy. *)

(** {1 Analyses} *)

val link_bytes : Topology.t -> chunk_size:float -> t -> float array
(** Total bytes carried per link id (Fig. 1 heat maps). *)

val link_busy_seconds : Topology.t -> t -> float array

val utilization_timeline : Topology.t -> bins:int -> t -> (float * float) list
(** [(bin_end_time, fraction_of_links_busy)] averaged per bin over the
    schedule's makespan (Figs. 16b, 18). *)

val average_utilization : Topology.t -> t -> float
(** Mean fraction of links busy over the makespan. *)

val chunk_path : t -> int -> send list
(** The sends that move one chunk, in time order — its static route. *)

val pp_events : ?chunk_names:(int -> string) -> Format.formatter -> t -> unit
(** Human-readable event listing, one line per send. *)

val of_json : string -> (t, string) result
(** Load a schedule previously written by {!to_json} (or hand-authored in
    the same shape) — the import path a CCL-facing deployment would use.
    The collective metadata, if present, is ignored; only the send list is
    read. *)

val to_json : ?spec:Spec.t -> t -> string
(** Serialize the schedule for consumption by an external CCL runtime (in
    the spirit of MSCCL-style algorithm files): a JSON object with the
    collective metadata (when [spec] is given) and the flat send list
    [{chunk, src, dst, link, start, finish}]. Times are seconds. *)

val of_json_value : Tacos_util.Json.t -> (t, string) result
(** {!of_json} on an already-parsed document: [of_json text] is
    [Json.parse text] followed by this, and the error texts are the same.
    Sends that tie on [(start, finish)] come back in the reverse of their
    document order; every other send keeps its place in the time order. *)

val to_json_fields : ?spec:Spec.t -> t -> (string * Tacos_util.Json.t) list
(** The fields of {!to_json}'s object as values, built in one pass without
    printing: [Json.Object (to_json_fields ?spec t)] equals
    [Json.parse (to_json ?spec t)] — same field order, integers as their
    float value, every finite float unchanged (the [%.17g] text
    round-trips it). Embed these to place a schedule inside a larger
    document, e.g. a registry entry or a served export, and encode once. *)
