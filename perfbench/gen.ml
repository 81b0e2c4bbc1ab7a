(* Seeded inputs of the benchmark workloads.

   Everything the program under test receives -- topology descriptions,
   collective specs and serve request lines -- is produced here from the
   workload seed alone, so the same seed always yields the same inputs. The
   seed draws the synthesis seed handed to the synthesizer (one of
   [synth_seeds] values, for which the expected outputs are recorded in
   expected.json) and the request order. *)

open Tacos_topology
module Rng = Tacos_util.Rng
module Json = Tacos_util.Json

let synth_seeds = 8

type topology = Desc of string | Lines of string list

type request = {
  label : string;  (** names the request in expected.json *)
  topology : topology;
  pattern : string;
  size : string;
  chunks : int;
  synth_seed : int;
  trials : int;
  domains : int;
  hierarchical : bool;  (** [Plan.decompose Auto] + [Plan.synthesize] *)
  replay : bool;  (** lower with [Program.of_schedule] and run [Engine.run] *)
}

let synth_seed_of rng = 1 + Rng.int rng synth_seeds

(* A fabric no parser shorthand covers is handed over as an edge list. Link
   bandwidths are written in bytes/s and latencies in microseconds, both
   exactly, so the parsed fabric is structurally identical to the built one. *)
let edge_lines topo =
  Printf.sprintf "npus %d" (Topology.num_npus topo)
  :: List.map
       (fun (e : Topology.edge) ->
         Printf.sprintf "link %d %d %.0f %gus" e.src e.dst (Link.bandwidth e.link)
           (Link.cost e.link 0. *. 1e6))
       (Topology.edges topo)

let switch_2d_8x4 () = Builders.two_level_switch ~bw:(50e9, 25e9) (8, 4)

let synth_requests ~workload ~seed =
  let rng = Rng.create seed in
  let synth_seed = synth_seed_of rng in
  let req ?(trials = 1) ?(domains = 1) ?(hierarchical = false) ?(replay = true)
      label topology chunks =
    {
      label;
      topology;
      pattern = "all-reduce";
      size = "64MB";
      chunks;
      synth_seed;
      trials;
      domains;
      hierarchical;
      replay;
    }
  in
  match workload with
  | "hetero_ar" ->
    let hetero label topology chunks = req ~trials:2 ~domains:2 label topology chunks in
    Rng.shuffle_list rng
      [
        hetero "rfs-2x4x16" (Desc "rfs:2x4x16") 4;
        hetero "rfs-2x4x8" (Desc "rfs:2x4x8") 16;
        hetero "switch2d-8x4" (Lines (edge_lines (switch_2d_8x4 ()))) 8;
        hetero "dragonfly-4x5" (Desc "dragonfly:4x5") 8;
        hetero "dgx1" (Desc "dgx1") 16;
      ]
  | "torus512_ar" -> [ req "torus-8x8x8" (Desc "torus:8x8x8") 1 ]
  | "hier_1k" ->
    [
      req ~trials:2 ~domains:2 ~hierarchical:true ~replay:false "rfs-4x8x32"
        (Desc "rfs:4x8x32") 1;
    ]
  | w -> invalid_arg ("Gen.synth_requests: unknown workload " ^ w)

(* --- serve_mix ------------------------------------------------------------ *)

type key = { topo : string; pattern : string; size : string; chunks : int }

(* Ordered by popularity rank (Zipf, s = 1). Send counts span 1e2 to 3e4;
   the last key (32,256 sends) is the one whose persist cost shows the
   quadratic [Schedule.to_json]. *)
let keys =
  [|
    { topo = "ring:8"; pattern = "all-reduce"; size = "1MB"; chunks = 1 };
    { topo = "dgx1"; pattern = "all-reduce"; size = "64MB"; chunks = 2 };
    { topo = "mesh:4x4"; pattern = "all-gather"; size = "4MB"; chunks = 1 };
    { topo = "fc:8"; pattern = "reduce-scatter"; size = "8MB"; chunks = 2 };
    { topo = "switch:16"; pattern = "all-gather"; size = "16MB"; chunks = 1 };
    { topo = "mesh:3x3"; pattern = "all-reduce"; size = "4MB"; chunks = 2 };
    { topo = "torus:4x4"; pattern = "all-reduce"; size = "16MB"; chunks = 1 };
    { topo = "hypercube:4"; pattern = "all-reduce"; size = "32MB"; chunks = 1 };
    { topo = "ring:16"; pattern = "all-gather"; size = "2MB"; chunks = 2 };
    { topo = "dgx1"; pattern = "all-gather"; size = "16MB"; chunks = 4 };
    { topo = "dragonfly:4x5"; pattern = "all-reduce"; size = "64MB"; chunks = 1 };
    { topo = "torus:4x4x2"; pattern = "all-gather"; size = "32MB"; chunks = 1 };
    { topo = "mesh:6x6"; pattern = "reduce-scatter"; size = "16MB"; chunks = 1 };
    { topo = "rfs:2x4x4"; pattern = "all-reduce"; size = "64MB"; chunks = 1 };
    { topo = "fc:16"; pattern = "all-gather"; size = "64MB"; chunks = 4 };
    { topo = "dragonfly:4x5"; pattern = "all-gather"; size = "16MB"; chunks = 8 };
    { topo = "switch:32"; pattern = "all-reduce"; size = "16MB"; chunks = 2 };
    { topo = "hypercube:5"; pattern = "all-gather"; size = "8MB"; chunks = 4 };
    { topo = "torus:4x4x4"; pattern = "all-gather"; size = "64MB"; chunks = 1 };
    { topo = "rfs:2x4x8"; pattern = "all-gather"; size = "64MB"; chunks = 2 };
    { topo = "torus:8x8"; pattern = "all-reduce"; size = "64MB"; chunks = 1 };
    { topo = "mesh:8x8"; pattern = "reduce-scatter"; size = "32MB"; chunks = 2 };
    { topo = "torus:4x4x4"; pattern = "all-reduce"; size = "16MB"; chunks = 2 };
    { topo = "rfs:2x4x8"; pattern = "all-reduce"; size = "64MB"; chunks = 4 };
  |]

let key_name k = Printf.sprintf "%s/%s/%s/c%d" k.topo k.pattern k.size k.chunks

(* Fabrics of at most 16 NPUs, the only ones tune requests name. *)
let tune_keys = [| 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 14 |]
let tune_candidates = [ 1; 2; 4 ]

type kind =
  | Synthesize of int  (** key index *)
  | Export_json of int
  | Export_csv of int
  | Tune of int
  | Stats
  | Metrics

(* Per half of a pass, over both clients. *)
let half_requests = 500
let clients = 2
let n_control = 10
let n_tune = 15
let n_export = 50

(* [n] requests spread over weights by largest remainder, after giving
   every item [floor] first: the counts follow the weights exactly, so the
   number of heavy requests does not depend on the seed. *)
let apportion ?(floor = 0) weights n =
  let m = Array.length weights in
  let rest = n - (floor * m) in
  let total = Array.fold_left ( +. ) 0. weights in
  let quota = Array.map (fun w -> float_of_int rest *. w /. total) weights in
  let counts = Array.map (fun q -> floor + int_of_float q) quota in
  let left = n - Array.fold_left ( + ) 0 counts in
  let order = Array.init m Fun.id in
  let frac i = quota.(i) -. Float.of_int (int_of_float quota.(i)) in
  Array.stable_sort (fun a b -> compare (frac b) (frac a)) order;
  for j = 0 to left - 1 do
    counts.(order.(j)) <- counts.(order.(j)) + 1
  done;
  counts

let zipf m = Array.init m (fun r -> 1. /. float_of_int (r + 1))

(* The request multiset of one half, identical for every seed. *)
let half_multiset () =
  let n_json = n_export / 2 in
  let n_csv = n_export - n_json in
  let n_synth = half_requests - n_control - n_tune - n_export in
  let nkeys = Array.length keys in
  let synth = apportion ~floor:1 (zipf nkeys) n_synth in
  let json = apportion (zipf nkeys) n_json in
  let csv = apportion (zipf nkeys) n_csv in
  let tune = apportion (zipf (Array.length tune_keys)) n_tune in
  let reps n k = List.init n (fun _ -> k) in
  List.concat
    [
      List.concat (List.init nkeys (fun i -> reps synth.(i) (Synthesize i)));
      List.concat (List.init nkeys (fun i -> reps json.(i) (Export_json i)));
      List.concat (List.init nkeys (fun i -> reps csv.(i) (Export_csv i)));
      List.concat
        (List.init (Array.length tune_keys) (fun i -> reps tune.(i) (Tune tune_keys.(i))));
      reps (n_control / 2) Stats;
      reps (n_control - (n_control / 2)) Metrics;
    ]

let request_line ~id ~synth_seed kind =
  let collective op k extra =
    let k = keys.(k) in
    Json.Object
      ([
         ("id", Json.Number (float_of_int id));
         ("op", Json.String op);
         ("topology", Json.String k.topo);
         ("pattern", Json.String k.pattern);
         ("size", Json.String k.size);
         ("chunks", Json.Number (float_of_int k.chunks));
         ("seed", Json.Number (float_of_int synth_seed));
       ]
      @ extra)
  in
  let control op extra =
    Json.Object
      ([ ("id", Json.Number (float_of_int id)); ("op", Json.String op) ] @ extra)
  in
  Json.encode
    (match kind with
    | Synthesize k -> collective "synthesize" k []
    | Export_json k -> collective "export" k [ ("format", Json.String "json") ]
    | Export_csv k -> collective "export" k [ ("format", Json.String "csv") ]
    | Tune k ->
      collective "tune" k
        [
          ( "candidates",
            Json.Array (List.map (fun c -> Json.Number (float_of_int c)) tune_candidates) );
        ]
    | Stats -> control "stats" []
    | Metrics -> control "metrics" [ ("prefix", Json.String "tacos_serve_") ])

(* Moves each key's first [synthesize] ahead of the key's exports, so that
   a key's first request in a half is always a [synthesize]: the misses of
   the first half are then the 24 keys' synthesize requests in every pass,
   and no export pays for a synthesis and its persist. *)
let synthesize_first (reqs : kind array) =
  let first = Hashtbl.create 32 in
  Array.iteri
    (fun i kind ->
      match kind with
      | Synthesize k | Export_json k | Export_csv k ->
        if not (Hashtbl.mem first k) then Hashtbl.replace first k i
      | Tune _ | Stats | Metrics -> ())
    reqs;
  Hashtbl.iter
    (fun k i ->
      if reqs.(i) <> Synthesize k then begin
        let rec find j = if reqs.(j) = Synthesize k then j else find (j + 1) in
        let j = find i in
        reqs.(j) <- reqs.(i);
        reqs.(i) <- Synthesize k
      end)
    first

(* Each key belongs to one client, as behind a front end that routes by
   key. Two requests for one key then never run at once: no request waits
   for another's synthesis in flight, so the latency tail and the pass time
   do not hinge on when two clients happen to ask for the same key. *)
let client_of = function
  | Synthesize k | Export_json k | Export_csv k | Tune k -> k mod clients
  | Stats -> 0
  | Metrics -> 1 mod clients

type line = { id : int; kind : kind; line : string }

type serve_input = {
  serve_seed : int;  (** synthesis seed carried by every collective request *)
  halves : line array array array;
      (** [halves.(h).(c)]: the requests client [c] sends in half [h], in
          order *)
}

let serve_seed ~seed = synth_seed_of (Rng.create seed)

(* The requests of pass [pass]: the synthesis seed depends on [seed] alone,
   the order on both, so that the passes of one run sample different
   orders. *)
let serve_requests ~seed ~pass =
  let root = Rng.create seed in
  let synth_seed = synth_seed_of root in
  let rec nth i = if i = 0 then Rng.split root else (ignore (Rng.split root); nth (i - 1)) in
  let rng = nth pass in
  let next_id = ref (pass * 2 * half_requests) in
  let half _ =
    let reqs = Array.of_list (half_multiset ()) in
    Rng.shuffle_in_place rng reqs;
    synthesize_first reqs;
    let lines =
      Array.map
        (fun kind ->
          incr next_id;
          { id = !next_id; kind; line = request_line ~id:!next_id ~synth_seed kind })
        reqs
    in
    Array.init clients (fun c ->
        Array.of_list (List.filter (fun l -> client_of l.kind = c) (Array.to_list lines)))
  in
  { serve_seed = synth_seed; halves = Array.init 2 half }
