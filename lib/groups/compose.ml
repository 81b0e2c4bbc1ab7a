(* Namespaces of the substrate libraries. *)
open Tacos_collective

let relabel (group : Group.t) ~chunk_map (schedule : Schedule.t) =
  let c = schedule.Schedule.sends in
  let rank r = group.members.(r) in
  Schedule.make
    {
      c with
      Schedule.chunks = Array.map chunk_map c.Schedule.chunks;
      edges = Array.map (fun e -> group.link_map.(e)) c.edges;
      srcs = Array.map rank c.srcs;
      dsts = Array.map rank c.dsts;
    }

let lift parts =
  (* Parts deduplicated onto one sub-synthesis share its schedule; at the
     same offset they also share one shifted copy, time columns included. *)
  let shifted = ref [] in
  let shift schedule offset =
    match List.find_opt (fun (s, o, _) -> s == schedule && o = offset) !shifted with
    | Some (_, _, moved) -> moved
    | None ->
      let moved = Schedule.shift schedule offset in
      shifted := (schedule, offset, moved) :: !shifted;
      moved
  in
  List.map
    (fun (group, chunk_map, offset, schedule) ->
      relabel group ~chunk_map (shift schedule offset))
    parts
