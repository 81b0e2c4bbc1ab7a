(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective

type send = Schedule.send = {
  chunk : int;
  edge : int;
  src : int;
  dst : int;
  start : float;
  finish : float;
}

type t = { sends : send list; makespan : float }

let make sends =
  List.iter
    (fun s ->
      if s.start < 0. || s.finish < s.start then
        invalid_arg "Schedule.make: bad send interval")
    sends;
  let sends =
    List.stable_sort
      (fun a b ->
        let c = Float.compare a.start b.start in
        if c <> 0 then c else Float.compare a.finish b.finish)
      sends
  in
  let makespan = List.fold_left (fun acc s -> Float.max acc s.finish) 0. sends in
  { sends; makespan }

let shift t dt =
  make
    (List.map (fun s -> { s with start = s.start +. dt; finish = s.finish +. dt }) t.sends)

let reverse t =
  let m = t.makespan in
  make
    (List.map
       (fun s ->
         {
           s with
           src = s.dst;
           dst = s.src;
           start = m -. s.finish;
           finish = m -. s.start;
         })
       t.sends)

let concat a b =
  let b = shift b a.makespan in
  make (a.sends @ b.sends)

let union a b =
  let cmp x y =
    let c = Float.compare x.start y.start in
    if c <> 0 then c else Float.compare x.finish y.finish
  in
  {
    sends = List.merge cmp a.sends b.sends;
    makespan = Float.max a.makespan b.makespan;
  }

let check_forbidden ~eps forbidden s =
  List.find_map
    (fun (link, from) ->
      if s.edge = link && s.finish > from +. eps then
        Some
          (Printf.sprintf "send of chunk %d rides link %d after it died at %g"
             s.chunk link from)
      else None)
    forbidden

let validate_positioned topo ?(forbidden = []) ~precondition ~postcondition
    ~num_chunks ~chunk_size t =
  let eps = Schedule.eps_for t.makespan in
  let npus = Topology.num_npus topo in
  let chunks = num_chunks in
  let exception Bad of string in
  try
    (* arrival.(d).(c): earliest time chunk c is known to be at NPU d. *)
    let arrival = Array.make_matrix npus chunks infinity in
    List.iter (fun (d, c) -> arrival.(d).(c) <- 0.) precondition;
    let last_free = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.chunk < 0 || s.chunk >= chunks then
          raise (Bad (Printf.sprintf "send of unknown chunk %d" s.chunk));
        let e =
          try Topology.edge topo s.edge
          with Invalid_argument _ ->
            raise (Bad (Printf.sprintf "send over unknown link %d" s.edge))
        in
        if e.Topology.src <> s.src || e.Topology.dst <> s.dst then
          raise
            (Bad
               (Printf.sprintf "send %d->%d does not match link %d (%d->%d)" s.src
                  s.dst s.edge e.Topology.src e.Topology.dst));
        (match check_forbidden ~eps forbidden s with
        | Some msg -> raise (Bad msg)
        | None -> ());
        let cost = Link.cost e.Topology.link chunk_size in
        if s.finish -. s.start < cost -. eps then
          raise
            (Bad
               (Printf.sprintf "send of chunk %d on link %d shorter than its α-β cost"
                  s.chunk s.edge));
        (match Hashtbl.find_opt last_free s.edge with
        | Some free when s.start < free -. eps ->
          raise (Bad (Printf.sprintf "link %d carries two chunks at once" s.edge))
        | _ -> ());
        Hashtbl.replace last_free s.edge s.finish;
        if arrival.(s.src).(s.chunk) > s.start +. eps then
          raise
            (Bad
               (Printf.sprintf "NPU %d sends chunk %d at %g before holding it" s.src
                  s.chunk s.start));
        arrival.(s.dst).(s.chunk) <- Float.min arrival.(s.dst).(s.chunk) s.finish)
      t.sends;
    List.iter
      (fun (d, c) ->
        if arrival.(d).(c) = infinity then
          raise (Bad (Printf.sprintf "postcondition unmet: NPU %d never gets chunk %d" d c)))
      postcondition;
    Ok ()
  with Bad msg -> Error msg
