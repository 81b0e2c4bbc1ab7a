(* Namespaces of the substrate libraries. *)
open Tacos_topology

type send = {
  chunk : int;
  edge : int;
  src : int;
  dst : int;
  start : float;
  finish : float;
}

type t = { sends : send list; makespan : float }

(* Relative tolerance for floating-point time comparisons. *)
let eps_for makespan = 1e-9 +. (1e-9 *. Float.abs makespan)

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

let empty = { sends = []; makespan = 0. }
let num_sends t = List.length t.sends

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

let phase_of_send ~reduce_scatter s =
  (* A send of the concatenated All-Reduce belongs to the All-Gather phase
     iff it starts at or after the Reduce-Scatter makespan (the phases butt
     up exactly, so compare with the shared tolerance). *)
  let eps = eps_for reduce_scatter.makespan in
  if s.start +. eps >= reduce_scatter.makespan then "all-gather" else "reduce-scatter"

(* --- validation ------------------------------------------------------- *)

(* [forbidden] lists (link id, dead-from time) pairs: any send that overlaps
   a link's dead interval is illegal. Mid-flight repair validates composite
   (kept prefix + patches) schedules on the *healthy* topology this way —
   kept sends legitimately rode the link before it died. *)
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
  let eps = eps_for t.makespan in
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

let validate_noncombining topo spec t =
  validate_positioned topo
    ~precondition:(Spec.precondition spec)
    ~postcondition:(Spec.postcondition spec)
    ~num_chunks:(Spec.num_chunks spec) ~chunk_size:(Spec.chunk_size spec) t

let validate topo spec t =
  if Pattern.is_combining spec.Spec.pattern then
    validate_noncombining (Topology.reverse topo) (Spec.reverse spec) (reverse t)
  else
    match spec.Spec.pattern with
    | Pattern.All_reduce ->
      Error "Schedule.validate: use validate_all_reduce for All-Reduce"
    | _ -> validate_noncombining topo spec t

let validate_all_reduce topo spec ~reduce_scatter ~all_gather =
  match spec.Spec.pattern with
  | Pattern.All_reduce -> (
    let phase pattern = Spec.with_pattern spec pattern in
    match validate topo (phase Pattern.Reduce_scatter) reduce_scatter with
    | Error e -> Error ("reduce-scatter phase: " ^ e)
    | Ok () -> (
      let eps = eps_for reduce_scatter.makespan in
      let ag_start =
        List.fold_left (fun acc s -> Float.min acc s.start) infinity all_gather.sends
      in
      if all_gather.sends <> [] && ag_start < reduce_scatter.makespan -. eps then
        Error "all-gather phase starts before reduce-scatter completes"
      else
        match
          validate topo (phase Pattern.All_gather)
            (shift all_gather (-.reduce_scatter.makespan))
        with
        | Error e -> Error ("all-gather phase: " ^ e)
        | Ok () -> Ok ()))
  | _ -> Error "Schedule.validate_all_reduce: spec is not All-Reduce"

(* Reduction-aware validation in positional form. The plan is split
   structurally: [combining] sends move *partial sums* (the source's
   accumulated contributions are spent and merged into the destination —
   exact, disjoint set union), [pull] sends replicate *fully reduced* values.
   The replay applies events in chronological order (a merge finishing at t
   can feed a send starting at t), so multi-epoch composites — kept healthy
   prefix plus per-epoch repair patches, all in one schedule pair — validate
   in a single pass. *)
let validate_reduction topo ?(forbidden = []) ~contributions ~postcondition
    ~num_chunks ~chunk_size ~combining ~pull () =
  let module Iset = Set.Make (Int) in
  let eps = eps_for (Float.max combining.makespan pull.makespan) in
  let npus = Topology.num_npus topo in
  let exception Bad of string in
  try
    if num_chunks <= 0 then raise (Bad "num_chunks must be positive");
    let contributors = Array.make num_chunks Iset.empty in
    let absorbed = Array.make_matrix npus num_chunks Iset.empty in
    List.iter
      (fun (v, c) ->
        if v < 0 || v >= npus || c < 0 || c >= num_chunks then
          raise (Bad (Printf.sprintf "contribution (%d, %d) out of range" v c));
        contributors.(c) <- Iset.add v contributors.(c);
        absorbed.(v).(c) <- Iset.add v absorbed.(v).(c))
      contributions;
    (* Physical legality of the union: links exist and match endpoints,
       durations cover the α-β cost, one chunk per link at a time, no send
       overlaps a dead interval. *)
    let all_sends =
      List.merge
        (fun a b -> Float.compare a.start b.start)
        combining.sends pull.sends
    in
    let last_free = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.chunk < 0 || s.chunk >= num_chunks then
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
        if s.finish -. s.start < Link.cost e.Topology.link chunk_size -. eps then
          raise
            (Bad
               (Printf.sprintf "send of chunk %d on link %d shorter than its α-β cost"
                  s.chunk s.edge));
        (match Hashtbl.find_opt last_free s.edge with
        | Some free when s.start < free -. eps ->
          raise (Bad (Printf.sprintf "link %d carries two chunks at once" s.edge))
        | _ -> ());
        Hashtbl.replace last_free s.edge s.finish)
      all_sends;
    (* Semantic replay. A combining send snapshots (and spends) the source's
       partial at its start and merges it into the destination at its finish;
       a pull send requires the source to hold the fully reduced value at its
       start and replicates it at its finish. Finishes sort before starts at
       equal times. *)
    let events =
      List.concat_map
        (fun s -> [ (s.start, 1, `Combine_start, s); (s.finish, 0, `Combine_finish, s) ])
        combining.sends
      @ List.concat_map
          (fun s -> [ (s.start, 1, `Pull_start, s); (s.finish, 0, `Pull_finish, s) ])
          pull.sends
    in
    let events =
      List.sort
        (fun (ta, pa, _, _) (tb, pb, _, _) ->
          let c = Float.compare ta tb in
          if c <> 0 then c else compare pa pb)
        events
    in
    let in_flight : (int * float, Iset.t) Hashtbl.t = Hashtbl.create 64 in
    let key (s : send) = (s.edge, s.start) in
    List.iter
      (fun (_, _, kind, s) ->
        let c = s.chunk in
        match kind with
        | `Combine_start ->
          Hashtbl.replace in_flight (key s) absorbed.(s.src).(c);
          absorbed.(s.src).(c) <- Iset.empty
        | `Combine_finish ->
          let carried =
            match Hashtbl.find_opt in_flight (key s) with
            | Some set ->
              Hashtbl.remove in_flight (key s);
              set
            | None -> Iset.empty
          in
          let clash = Iset.inter carried absorbed.(s.dst).(c) in
          if not (Iset.is_empty clash) then
            raise
              (Bad
                 (Printf.sprintf
                    "NPU %d absorbs the contribution of rank %d to chunk %d twice"
                    s.dst (Iset.min_elt clash) c));
          absorbed.(s.dst).(c) <- Iset.union carried absorbed.(s.dst).(c)
        | `Pull_start ->
          if not (Iset.equal absorbed.(s.src).(c) contributors.(c)) then
            raise
              (Bad
                 (Printf.sprintf
                    "NPU %d forwards chunk %d at %g holding a partial copy (%d of \
                     %d contributions)"
                    s.src c s.start
                    (Iset.cardinal absorbed.(s.src).(c))
                    (Iset.cardinal contributors.(c))))
        | `Pull_finish -> absorbed.(s.dst).(c) <- contributors.(c))
      events;
    List.iter
      (fun (d, c) ->
        if d < 0 || d >= npus || c < 0 || c >= num_chunks then
          raise (Bad (Printf.sprintf "postcondition (%d, %d) out of range" d c));
        if not (Iset.equal absorbed.(d).(c) contributors.(c)) then
          raise
            (Bad
               (Printf.sprintf
                  "postcondition unmet: NPU %d holds %d of %d contributions to \
                   chunk %d"
                  d
                  (Iset.cardinal absorbed.(d).(c))
                  (Iset.cardinal contributors.(c))
                  c)))
      postcondition;
    Ok ()
  with Bad msg -> Error msg

(* --- analyses ---------------------------------------------------------- *)

let link_bytes topo ~chunk_size t =
  let bytes = Array.make (Topology.num_links topo) 0. in
  List.iter (fun s -> bytes.(s.edge) <- bytes.(s.edge) +. chunk_size) t.sends;
  bytes

let link_busy_seconds topo t =
  let busy = Array.make (Topology.num_links topo) 0. in
  List.iter (fun s -> busy.(s.edge) <- busy.(s.edge) +. (s.finish -. s.start)) t.sends;
  busy

let utilization_timeline topo ~bins t =
  Tacos_util.Timeline.utilization ~bins ~span:t.makespan
    ~capacity:(float_of_int (Topology.num_links topo))
    (fun f -> List.iter (fun s -> f s.start s.finish) t.sends)

let average_utilization topo t =
  if t.makespan <= 0. then 0.
  else begin
    let busy = link_busy_seconds topo t in
    let total = Array.fold_left ( +. ) 0. busy in
    total /. (float_of_int (Topology.num_links topo) *. t.makespan)
  end

let chunk_path t c = List.filter (fun s -> s.chunk = c) t.sends

module Json = Tacos_util.Json

let of_json_value doc =
  match Option.bind (Json.member "sends" doc) Json.to_list with
  | None -> Error "Schedule.of_json: missing \"sends\" array"
  | Some entries -> (
    let parse_send entry =
      let int key = Option.bind (Json.member key entry) Json.to_int in
      let num key = Option.bind (Json.member key entry) Json.to_float in
      match (int "chunk", int "src", int "dst", int "link", num "start", num "finish") with
      | Some chunk, Some src, Some dst, Some edge, Some start, Some finish ->
        Some { chunk; src; dst; edge; start; finish }
      | _ -> None
    in
    match
      List.fold_left
        (fun acc entry ->
          match (acc, parse_send entry) with
          | Some sends, Some send -> Some (send :: sends)
          | _ -> None)
        (Some []) entries
    with
    | Some sends -> (
      match make sends with
      | sched -> Ok sched
      | exception Invalid_argument e -> Error ("Schedule.of_json: " ^ e))
    | None -> Error "Schedule.of_json: malformed send entry")

let of_json text =
  match Json.parse text with
  | Error e -> Error ("Schedule.of_json: " ^ e)
  | Ok doc -> of_json_value doc

(* What [Json.parse] makes of [to_json]'s text, built without printing:
   the same fields in the same order, integers as their float value and
   floats unchanged ([%.17g] round-trips every finite float). *)
let to_json_fields ?spec t =
  let int i = Json.Number (float_of_int i) in
  let send s =
    Json.Object
      [
        ("chunk", int s.chunk);
        ("src", int s.src);
        ("dst", int s.dst);
        ("link", int s.edge);
        ("start", Json.Number s.start);
        ("finish", Json.Number s.finish);
      ]
  in
  (match spec with
  | Some s ->
    [
      ("collective", Json.String (Pattern.name s.Spec.pattern));
      ("npus", int s.Spec.npus);
      ("chunks", int (Spec.num_chunks s));
      ("chunk_size_bytes", Json.Number (Spec.chunk_size s));
    ]
  | None -> [])
  @ [
      ("makespan_seconds", Json.Number t.makespan);
      ("sends", Json.Array (List.map send t.sends));
    ]

let to_json ?spec t =
  let last = List.length t.sends - 1 in
  let buf = Buffer.create (256 + (96 * (last + 1))) in
  Buffer.add_string buf "{\n";
  (match spec with
  | Some s ->
    Buffer.add_string buf
      (Printf.sprintf
         "  \"collective\": \"%s\",\n  \"npus\": %d,\n  \"chunks\": %d,\n  \"chunk_size_bytes\": %.17g,\n"
         (Pattern.name s.Spec.pattern) s.Spec.npus (Spec.num_chunks s)
         (Spec.chunk_size s))
  | None -> ());
  Buffer.add_string buf (Printf.sprintf "  \"makespan_seconds\": %.17g,\n" t.makespan);
  Buffer.add_string buf "  \"sends\": [\n";
  List.iteri
    (fun i s ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"chunk\": %d, \"src\": %d, \"dst\": %d, \"link\": %d, \
            \"start\": %.17g, \"finish\": %.17g}%s\n"
           s.chunk s.src s.dst s.edge s.start s.finish
           (if i = last then "" else ",")))
    t.sends;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let pp_events ?(chunk_names = string_of_int) ppf t =
  List.iter
    (fun s ->
      Format.fprintf ppf "[%10s - %10s] chunk %-6s  NPU %d -> NPU %d (link %d)@."
        (Tacos_util.Units.time_pp s.start)
        (Tacos_util.Units.time_pp s.finish)
        (chunk_names s.chunk) s.src s.dst s.edge)
    t.sends
