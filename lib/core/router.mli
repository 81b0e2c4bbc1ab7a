(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective

(** Greedy time-space routing over the TEN — the synthesis engine for
    patterns whose demands the matching loop cannot pull (see
    {!Alltoall}): chunks with explicit (source, destination) pairs are
    routed one at a time on earliest-arrival paths through the partially
    reserved network, each physical link carrying at most one chunk at a
    time. *)

type job = { chunk : int; src : int; dst : int }

(** Per-link reservation calendar: sorted disjoint busy intervals, with all
    comparisons under the magnitude-scaled {!Schedule.eps_for} tolerance.
    Exposed for testing. *)
module Calendar : sig
  type t

  val create : unit -> t

  val earliest_free : t -> ready:float -> dur:float -> float
  (** Earliest [start >= ready] such that [\[start, start + dur)] is free. *)

  val reserve : t -> start:float -> dur:float -> unit
  (** Mark [\[start, start + dur)] busy. Raises [Invalid_argument] if the
      interval overlaps an existing reservation by more than the scaled
      tolerance. *)
end

val route_jobs :
  ?seed:int -> Topology.t -> chunk_size:float -> job list -> Schedule.t
(** Route every job (shuffled by [seed]); returns the combined schedule.
    Raises {!Synthesizer.Stuck} when some destination is unreachable. *)

val synthesize : ?seed:int -> Topology.t -> Spec.t -> Synthesizer.result
(** Synthesis by routing, for the point-to-point demand patterns:
    [All_to_all], [Gather] (every NPU's chunks to the root) and [Scatter]
    (the root's chunks out to their owners). Raises [Invalid_argument] for
    other patterns — the matching loop ({!Synthesizer.synthesize}) covers
    those. *)

val dispatch :
  ?seed:int ->
  ?trials:int ->
  ?domains:int ->
  ?deadline:Tacos_util.Deadline.t ->
  ?sketch:Synthesizer.constraints ->
  Topology.t ->
  Spec.t ->
  Synthesizer.result
(** The one engine choice by pattern, shared by every caller that
    synthesizes an arbitrary spec (registry and serve backends, tuner,
    Pareto sweep, fallback ladder, CLI). Routed patterns ([All_to_all],
    [Gather], [Scatter]) go to {!synthesize}: [trials] and [domains] do not
    apply, an already-expired [deadline] raises
    {!Synthesizer.Deadline_exceeded} up front, and a [sketch] raises
    {!Synthesizer.Unsupported}. Every other pattern goes to
    {!Synthesizer.synthesize} with all arguments passed through. *)
