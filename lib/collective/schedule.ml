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

type columns = {
  chunks : int array;
  edges : int array;
  srcs : int array;
  dsts : int array;
  starts : float array;
  finishes : float array;
}

type t = { sends : columns; makespan : float }
type schedule = t

(* Relative tolerance for floating-point time comparisons. *)
let eps_for makespan = 1e-9 +. (1e-9 *. Float.abs makespan)

let empty =
  {
    sends =
      { chunks = [||]; edges = [||]; srcs = [||]; dsts = [||]; starts = [||]; finishes = [||] };
    makespan = 0.;
  }
let num_sends t = Array.length t.sends.starts

(* Float columns are filled by loops, not by [Array.map]/[Array.init]: a
   closure that returns a float boxes every element. *)
let offset_col (a : float array) dt =
  let r = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set r i (Array.unsafe_get a i +. dt)
  done;
  r

let mirror_col m (a : float array) =
  let r = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set r i (m -. Array.unsafe_get a i)
  done;
  r

(* --- the one sort -------------------------------------------------------- *)

(* Row [i] sorts strictly after row [j]. *)
let after (starts : float array) (finishes : float array) i j =
  let si = Array.unsafe_get starts i and sj = Array.unsafe_get starts j in
  si > sj || (si = sj && Array.unsafe_get finishes i > Array.unsafe_get finishes j)
[@@inline]

(* Stable merge of the sorted index runs [s.(lo..mid)] and [s.(mid..hi)]
   into [d.(lo..hi)]; the left run wins ties. *)
let merge_runs (starts : float array) (finishes : float array) s d lo mid hi =
  if not (after starts finishes s.(mid - 1) s.(mid)) then Array.blit s lo d lo (hi - lo)
  else begin
    let i = ref lo and j = ref mid and k = ref lo in
    while !i < mid && !j < hi do
      let x = Array.unsafe_get s !i and y = Array.unsafe_get s !j in
      if after starts finishes x y then begin
        Array.unsafe_set d !k y;
        incr j
      end
      else begin
        Array.unsafe_set d !k x;
        incr i
      end;
      incr k
    done;
    Array.blit s !i d !k (mid - !i);
    Array.blit s !j d (!k + (mid - !i)) (hi - !j)
  end

(* The permutation that stably sorts rows by (start, finish), or [None]
   when they are already in order. A natural merge sort: the rows split
   into maximal runs already in order (a strictly descending run is
   reversed, which keeps it stable), and neighbouring runs merge pairwise
   until one is left; two runs already in order across their boundary are
   joined without comparing. Sorted rows cost one pass, and [k] sorted parts
   laid end to end cost O(n log k) — the stable k-way merge of the parts,
   ties going to the earlier part. *)
let sorted_perm (starts : float array) (finishes : float array) =
  let n = Array.length starts in
  let gt i j = after starts finishes i j [@@inline] in
  let i = ref 1 in
  while !i < n && not (gt (!i - 1) !i) do
    incr i
  done;
  if !i >= n then None
  else begin
    let perm = Array.init n Fun.id in
    let runs = ref [] in
    let i = ref 0 in
    while !i < n do
      let lo = !i in
      let j = ref (lo + 1) in
      if !j < n && gt lo !j then begin
        while !j < n && gt (!j - 1) !j do
          incr j
        done;
        let a = ref lo and b = ref (!j - 1) in
        while !a < !b do
          let x = perm.(!a) in
          perm.(!a) <- perm.(!b);
          perm.(!b) <- x;
          incr a;
          decr b
        done
      end
      else
        while !j < n && not (gt (!j - 1) !j) do
          incr j
        done;
      runs := lo :: !runs;
      i := !j
    done;
    let bounds = ref (Array.of_list (List.rev (n :: !runs))) in
    let src = ref perm and dst = ref (Array.make n 0) in
    while Array.length !bounds > 2 do
      let b = !bounds and s = !src and d = !dst in
      let nruns = Array.length b - 1 in
      for p = 0 to (nruns / 2) - 1 do
        merge_runs starts finishes s d b.(2 * p) b.((2 * p) + 1) b.((2 * p) + 2)
      done;
      if nruns mod 2 = 1 then begin
        let lo = b.(nruns - 1) in
        Array.blit s lo d lo (n - lo)
      end;
      bounds := Array.init (((nruns + 1) / 2) + 1) (fun q -> b.(min (2 * q) nruns));
      src := d;
      dst := s
    done;
    Some !src
  end

let gather perm c =
  let n = Array.length perm in
  let ints (a : int array) = Array.map (fun k -> Array.unsafe_get a k) perm in
  let floats (a : float array) =
    let r = Array.create_float n in
    for k = 0 to n - 1 do
      Array.unsafe_set r k (Array.unsafe_get a (Array.unsafe_get perm k))
    done;
    r
  in
  {
    chunks = ints c.chunks;
    edges = ints c.edges;
    srcs = ints c.srcs;
    dsts = ints c.dsts;
    starts = floats c.starts;
    finishes = floats c.finishes;
  }

let sorted c = match sorted_perm c.starts c.finishes with None -> c | Some p -> gather p c

let make c =
  let n = Array.length c.starts in
  if
    Array.length c.finishes <> n
    || Array.length c.chunks <> n
    || Array.length c.edges <> n
    || Array.length c.srcs <> n
    || Array.length c.dsts <> n
  then invalid_arg "Schedule.make: columns of unequal length";
  let makespan = ref 0. in
  for i = 0 to n - 1 do
    let s = c.starts.(i) and f = c.finishes.(i) in
    (* Also rejects NaN and infinite times: every comparison with NaN is
       false, and an infinite start forces an infinite finish. *)
    if not (s >= 0. && f >= s && f < infinity) then
      invalid_arg "Schedule.make: bad send interval";
    if f > !makespan then makespan := f
  done;
  { sends = sorted c; makespan = !makespan }

let of_sends sends =
  let a = Array.of_list sends in
  make
    {
      chunks = Array.map (fun s -> s.chunk) a;
      edges = Array.map (fun s -> s.edge) a;
      srcs = Array.map (fun s -> s.src) a;
      dsts = Array.map (fun s -> s.dst) a;
      starts = Array.map (fun s -> s.start) a;
      finishes = Array.map (fun s -> s.finish) a;
    }

module Builder = struct
  type t = { mutable n : int; mutable rows : columns }

  let create () =
    let cap = 64 in
    let ints () = Array.make cap 0 and floats () = Array.create_float cap in
    {
      n = 0;
      rows =
        {
          chunks = ints ();
          edges = ints ();
          srcs = ints ();
          dsts = ints ();
          starts = floats ();
          finishes = floats ();
        };
    }

  (* Double the capacity of a full store. *)
  let grow b =
    let r = b.rows and n = b.n in
    let ints a = Array.append a (Array.make n 0) in
    let floats (a : float array) = Array.append a (Array.create_float n) in
    b.rows <-
      {
        chunks = ints r.chunks;
        edges = ints r.edges;
        srcs = ints r.srcs;
        dsts = ints r.dsts;
        starts = floats r.starts;
        finishes = floats r.finishes;
      }

  let push b ~chunk ~edge ~src ~dst ~start ~finish =
    if b.n = Array.length b.rows.starts then grow b;
    let r = b.rows and i = b.n in
    r.chunks.(i) <- chunk;
    r.edges.(i) <- edge;
    r.srcs.(i) <- src;
    r.dsts.(i) <- dst;
    r.starts.(i) <- start;
    r.finishes.(i) <- finish;
    b.n <- i + 1

  (* Rows are laid out last push first, so the stable sort leaves ties in
     reverse push order. *)
  let build b =
    let n = b.n in
    make (gather (Array.init n (fun k -> n - 1 - k)) b.rows)
end

(* --- rows ---------------------------------------------------------------- *)

let get t i =
  let c = t.sends in
  {
    chunk = c.chunks.(i);
    edge = c.edges.(i);
    src = c.srcs.(i);
    dst = c.dsts.(i);
    start = c.starts.(i);
    finish = c.finishes.(i);
  }

let iter f t =
  for i = 0 to num_sends t - 1 do
    f (get t i)
  done

let to_list t = List.init (num_sends t) (get t)

let filter p t =
  let keep = Array.of_list (List.filter (fun i -> p (get t i)) (List.init (num_sends t) Fun.id)) in
  make (gather keep t.sends)

(* --- composition --------------------------------------------------------- *)

let shift t dt =
  let c = t.sends in
  make { c with starts = offset_col c.starts dt; finishes = offset_col c.finishes dt }

let reverse t =
  let m = t.makespan and c = t.sends in
  make
    {
      c with
      srcs = c.dsts;
      dsts = c.srcs;
      starts = mirror_col m c.finishes;
      finishes = mirror_col m c.starts;
    }

let merge parts =
  let makespan = List.fold_left (fun acc p -> Float.max acc p.makespan) 0. parts in
  match List.filter (fun p -> num_sends p > 0) parts with
  | [] -> { empty with makespan }
  | [ p ] -> { p with makespan }
  | nonempty ->
    let col f = Array.concat (List.map (fun p -> f p.sends) nonempty) in
    let c =
      {
        chunks = col (fun c -> c.chunks);
        edges = col (fun c -> c.edges);
        srcs = col (fun c -> c.srcs);
        dsts = col (fun c -> c.dsts);
        starts = col (fun c -> c.starts);
        finishes = col (fun c -> c.finishes);
      }
    in
    { sends = sorted c; makespan }

let union a b = merge [ a; b ]
let concat a b = union a (shift b a.makespan)

let phase_of_send ~reduce_scatter s =
  (* A send of the concatenated All-Reduce belongs to the All-Gather phase
     iff it starts at or after the Reduce-Scatter makespan (the phases butt
     up exactly, so compare with the shared tolerance). *)
  let eps = eps_for reduce_scatter.makespan in
  if s.start +. eps >= reduce_scatter.makespan then "all-gather" else "reduce-scatter"

(* --- validation ------------------------------------------------------- *)

exception Bad of string

(* [forbidden] lists (link id, dead-from time) pairs: any send that overlaps
   a link's dead interval is illegal. Mid-flight repair validates composite
   (kept prefix + patches) schedules on the *healthy* topology this way —
   kept sends legitimately rode the link before it died. *)
let check_forbidden ~eps forbidden ~chunk ~edge ~finish =
  List.iter
    (fun (link, from) ->
      if edge = link && finish > from +. eps then
        raise
          (Bad
             (Printf.sprintf "send of chunk %d rides link %d after it died at %g" chunk
                link from)))
    forbidden

(* Per-link legality shared by both validators, for row [i] of [c] with its
   times offset by [offset]: the chunk is known, the link exists and matches
   the endpoints, the link is not dead, the duration covers the α-β cost,
   and the link is free. [last_free] is indexed by link. *)
let check_link topo ~eps ~forbidden ~num_chunks ~cost ~last_free c ~offset i =
  let chunk = c.chunks.(i) and edge = c.edges.(i) in
  let start = c.starts.(i) +. offset and finish = c.finishes.(i) +. offset in
  if chunk < 0 || chunk >= num_chunks then
    raise (Bad (Printf.sprintf "send of unknown chunk %d" chunk));
  if edge < 0 || edge >= Array.length cost then
    raise (Bad (Printf.sprintf "send over unknown link %d" edge));
  let e = Topology.edge topo edge in
  if e.Topology.src <> c.srcs.(i) || e.Topology.dst <> c.dsts.(i) then
    raise
      (Bad
         (Printf.sprintf "send %d->%d does not match link %d (%d->%d)" c.srcs.(i)
            c.dsts.(i) edge e.Topology.src e.Topology.dst));
  if forbidden <> [] then check_forbidden ~eps forbidden ~chunk ~edge ~finish;
  if finish -. start < cost.(edge) -. eps then
    raise
      (Bad
         (Printf.sprintf "send of chunk %d on link %d shorter than its α-β cost" chunk
            edge));
  if start < last_free.(edge) -. eps then
    raise (Bad (Printf.sprintf "link %d carries two chunks at once" edge));
  last_free.(edge) <- finish

let link_costs topo chunk_size =
  Array.init (Topology.num_links topo) (fun e ->
      Link.cost (Topology.edge topo e).Topology.link chunk_size)

(* The non-combining validator over [t]'s rows with every time offset by
   [offset] — the All-Gather half of an All-Reduce is checked in place,
   without a shifted copy. *)
let validate_at topo ~forbidden ~precondition ~postcondition ~num_chunks ~chunk_size
    ~offset t =
  let makespan = if num_sends t = 0 then 0. else Float.max 0. (t.makespan +. offset) in
  let eps = eps_for makespan in
  let npus = Topology.num_npus topo in
  let c = t.sends in
  try
    (* arrival.(d).(k): earliest time chunk k is known to be at NPU d. *)
    let arrival = Array.make_matrix npus num_chunks infinity in
    List.iter (fun (d, k) -> arrival.(d).(k) <- 0.) precondition;
    let cost = link_costs topo chunk_size in
    let last_free = Array.make (Array.length cost) neg_infinity in
    for i = 0 to num_sends t - 1 do
      check_link topo ~eps ~forbidden ~num_chunks ~cost ~last_free c ~offset i;
      let k = c.chunks.(i) and start = c.starts.(i) +. offset in
      let src = c.srcs.(i) and dst = c.dsts.(i) in
      if arrival.(src).(k) > start +. eps then
        raise
          (Bad
             (Printf.sprintf "NPU %d sends chunk %d at %g before holding it" src k start));
      let finish = c.finishes.(i) +. offset in
      if finish < arrival.(dst).(k) then arrival.(dst).(k) <- finish
    done;
    List.iter
      (fun (d, k) ->
        if arrival.(d).(k) = infinity then
          raise (Bad (Printf.sprintf "postcondition unmet: NPU %d never gets chunk %d" d k)))
      postcondition;
    Ok ()
  with Bad msg -> Error msg

let validate_positioned topo ?(forbidden = []) ~precondition ~postcondition
    ~num_chunks ~chunk_size t =
  validate_at topo ~forbidden ~precondition ~postcondition ~num_chunks ~chunk_size
    ~offset:0. t

let validate_noncombining ?(offset = 0.) topo spec t =
  validate_at topo ~forbidden:[]
    ~precondition:(Spec.precondition spec)
    ~postcondition:(Spec.postcondition spec)
    ~num_chunks:(Spec.num_chunks spec) ~chunk_size:(Spec.chunk_size spec) ~offset t

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
      if
        num_sends all_gather > 0
        && all_gather.sends.starts.(0) < reduce_scatter.makespan -. eps
      then Error "all-gather phase starts before reduce-scatter completes"
      else
        match
          validate_noncombining ~offset:(-.reduce_scatter.makespan) topo
            (phase Pattern.All_gather) all_gather
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
    (* Physical legality of the union, walked in start order (combining
       first on equal starts): links exist and match endpoints, durations
       cover the α-β cost, one chunk per link at a time, no send overlaps a
       dead interval. *)
    let cost = link_costs topo chunk_size in
    let last_free = Array.make (Array.length cost) neg_infinity in
    let nc = num_sends combining and np = num_sends pull in
    let i = ref 0 and j = ref 0 in
    while !i < nc || !j < np do
      if !j >= np || (!i < nc && combining.sends.starts.(!i) <= pull.sends.starts.(!j))
      then begin
        check_link topo ~eps ~forbidden ~num_chunks ~cost ~last_free combining.sends
          ~offset:0. !i;
        incr i
      end
      else begin
        check_link topo ~eps ~forbidden ~num_chunks ~cost ~last_free pull.sends
          ~offset:0. !j;
        incr j
      end
    done;
    (* Semantic replay. A combining send snapshots (and spends) the source's
       partial at its start and merges it into the destination at its finish;
       a pull send requires the source to hold the fully reduced value at its
       start and replicates it at its finish. Finishes sort before starts at
       equal times. *)
    let events =
      List.concat_map
        (fun s -> [ (s.start, 1, `Combine_start, s); (s.finish, 0, `Combine_finish, s) ])
        (to_list combining)
      @ List.concat_map
          (fun s -> [ (s.start, 1, `Pull_start, s); (s.finish, 0, `Pull_finish, s) ])
          (to_list pull)
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
  Array.iter (fun e -> bytes.(e) <- bytes.(e) +. chunk_size) t.sends.edges;
  bytes

let link_busy_seconds topo t =
  let busy = Array.make (Topology.num_links topo) 0. in
  let c = t.sends in
  Array.iteri (fun i e -> busy.(e) <- busy.(e) +. (c.finishes.(i) -. c.starts.(i))) c.edges;
  busy

let utilization_timeline topo ~bins t =
  Tacos_util.Timeline.utilization ~bins ~span:t.makespan
    ~capacity:(float_of_int (Topology.num_links topo))
    (fun f -> Array.iteri (fun i s -> f s t.sends.finishes.(i)) t.sends.starts)

let average_utilization topo t =
  if t.makespan <= 0. then 0.
  else begin
    let busy = link_busy_seconds topo t in
    let total = Array.fold_left ( +. ) 0. busy in
    total /. (float_of_int (Topology.num_links topo) *. t.makespan)
  end

let chunk_path t c = List.filter (fun s -> s.chunk = c) (to_list t)

module Json = Tacos_util.Json

let of_json_value doc =
  match Option.bind (Json.member "sends" doc) Json.to_list with
  | None -> Error "Schedule.of_json: missing \"sends\" array"
  | Some entries -> (
    let b = Builder.create () in
    let push entry =
      let int key = Option.bind (Json.member key entry) Json.to_int in
      let num key = Option.bind (Json.member key entry) Json.to_float in
      match (int "chunk", int "src", int "dst", int "link", num "start", num "finish") with
      | Some chunk, Some src, Some dst, Some edge, Some start, Some finish ->
        Builder.push b ~chunk ~edge ~src ~dst ~start ~finish;
        true
      | _ -> false
    in
    if not (List.for_all push entries) then Error "Schedule.of_json: malformed send entry"
    else
      match Builder.build b with
      | sched -> Ok sched
      | exception Invalid_argument e -> Error ("Schedule.of_json: " ^ e))

let of_json text =
  match Json.parse text with
  | Error e -> Error ("Schedule.of_json: " ^ e)
  | Ok doc -> of_json_value doc

(* What [Json.parse] makes of [to_json]'s text, built without printing:
   the same fields in the same order, integers as their float value and
   floats unchanged ([%.17g] round-trips every finite float). *)
let to_json_fields ?spec t =
  let int i = Json.Number (float_of_int i) in
  let c = t.sends in
  let send i =
    Json.Object
      [
        ("chunk", int c.chunks.(i));
        ("src", int c.srcs.(i));
        ("dst", int c.dsts.(i));
        ("link", int c.edges.(i));
        ("start", Json.Number c.starts.(i));
        ("finish", Json.Number c.finishes.(i));
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
      ("sends", Json.Array (List.init (num_sends t) send));
    ]

let to_json ?spec t =
  let n = num_sends t in
  let buf = Buffer.create (256 + (96 * n)) in
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
  let c = t.sends in
  for i = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf
         "    {\"chunk\": %d, \"src\": %d, \"dst\": %d, \"link\": %d, \
          \"start\": %.17g, \"finish\": %.17g}%s\n"
         c.chunks.(i) c.srcs.(i) c.dsts.(i) c.edges.(i) c.starts.(i) c.finishes.(i)
         (if i = n - 1 then "" else ","))
  done;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let pp_events ?(chunk_names = string_of_int) ppf t =
  iter
    (fun s ->
      Format.fprintf ppf "[%10s - %10s] chunk %-6s  NPU %d -> NPU %d (link %d)@."
        (Tacos_util.Units.time_pp s.start)
        (Tacos_util.Units.time_pp s.finish)
        (chunk_names s.chunk) s.src s.dst s.edge)
    t
