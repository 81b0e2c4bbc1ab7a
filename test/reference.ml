(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective
open Tacos_ten
module Rng = Tacos_util.Rng

let uniform_cost topo chunk_size =
  match Topology.edges topo with
  | [] -> invalid_arg "Reference.synthesize: topology has no links"
  | first :: rest ->
    let c = Link.cost first.Topology.link chunk_size in
    List.iter
      (fun (e : Topology.edge) ->
        if Float.abs (Link.cost e.link chunk_size -. c) > 1e-12 *. c then
          invalid_arg "Reference.synthesize: heterogeneous topology")
      rest;
    c

let synthesize ?(seed = 42) topo (spec : Spec.t) =
  (match spec.pattern with
  | Pattern.All_gather | Pattern.Broadcast _ -> ()
  | _ ->
    invalid_arg "Reference.synthesize: only All-Gather and Broadcast are supported");
  let rng = Rng.create seed in
  let span_cost = uniform_cost topo (Spec.chunk_size spec) in
  let ten = Ten.create topo ~span_cost in
  let n = Topology.num_npus topo in
  let num_chunks = Spec.num_chunks spec in
  (* arrival.(d).(c): first span at whose start d holds c (max_int = never). *)
  let arrival = Array.make_matrix n num_chunks max_int in
  List.iter (fun (d, c) -> arrival.(d).(c) <- 0) (Spec.precondition spec);
  let unsatisfied =
    ref
      (List.filter (fun (d, c) -> arrival.(d).(c) > 0) (Spec.postcondition spec))
  in
  while !unsatisfied <> [] do
    let span = Ten.spans ten in
    Ten.expand ten;
    (* Alg. 1 at this span: shuffled postconditions, random candidate source. *)
    let remaining = ref [] in
    List.iter
      (fun (d, c) ->
        let candidates =
          List.filter
            (fun (e : Topology.edge) ->
              arrival.(e.src).(c) <= span && Ten.occupant ten ~span ~edge:e.id = None)
            (Topology.in_edges topo d)
        in
        match candidates with
        | [] -> remaining := (d, c) :: !remaining
        | _ ->
          let e = Rng.pick rng candidates in
          Ten.match_chunk ten ~span ~edge:e.Topology.id ~chunk:c;
          arrival.(d).(c) <- span + 1)
      (Rng.shuffle_list rng !unsatisfied);
    if List.length !remaining = List.length !unsatisfied then
      raise
        (Tacos.Synthesizer.Stuck
           "reference synthesis made no progress — is the topology strongly \
            connected?");
    unsatisfied := !remaining
  done;
  ten

let schedule = Ten.to_schedule
