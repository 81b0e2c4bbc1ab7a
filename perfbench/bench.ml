(* The repository benchmark: four workloads through the synthesis stack.

     bench.exe --workload W --seed N --seconds S --trace 0|1
     bench.exe --record perfbench/expected.json

   Run from the repository root: the expected values are read from
   perfbench/expected.json, and registries and traces are written under
   .perfbench/.

   Each run sets its inputs up from the seed (several times, reporting the
   median set-up time), then repeats passes over the workload until
   [seconds] after its start, set-up included, and checks every output
   against the verifier, the Ideal lower bound and the recorded expected
   values. The last stdout line is one JSON object: end-to-end metrics with
   [--trace 0]; with [--trace 1] the first half of the time left after
   set-up runs untraced and the second half traced, and the line carries the
   per-layer metrics, the self time per layer, and the tracing overhead.
   README.md beside this file describes workloads and metrics. *)

open Tacos_topology
open Tacos_collective
module Synth = Tacos.Synthesizer
module Registry = Tacos.Registry
module Tuner = Tacos.Tuner
module Plan = Tacos_groups.Plan
module Program = Tacos_sim.Program
module Engine = Tacos_sim.Engine
module Service = Tacos_serve.Service
module Protocol = Tacos_serve.Protocol
module Pool = Tacos_util.Pool
module Json = Tacos_util.Json
module Obs = Tacos_obs.Obs
module Gen = Perfbench_gen.Gen

let now = Unix.gettimeofday

let get_ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what e)

(* --- statistics --------------------------------------------------------- *)

let percentile p = function
  | [] -> 0.
  | xs -> Tacos_util.Stats.percentile p xs

let median = percentile 50.
let sum = List.fold_left ( +. ) 0.
let geomean = function [] -> 0. | xs -> Tacos_util.Stats.geomean xs
let ratio a b = if b > 0. then a /. b else 0.

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> 0.
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb -> kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* Host times are reported with the CPU time the hypervisor stole taken
   out. On a shared virtual machine the stolen share of busy CPU time swings
   from a few percent to nearly half within minutes and slows whole runs
   with it, although the program under test does nothing different. A window
   reads the machine's busy and stolen CPU ticks (/proc/stat) at both ends;
   wall times measured inside it are scaled by one minus its steal share.
   Where /proc/stat cannot be read the share is 0 and times stay as
   measured. *)
let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | exception Sys_error _ | None -> (0., 0.)
  | Some line -> (
    match List.filter_map float_of_string_opt (String.split_on_char ' ' line) with
    | user :: nice :: system :: _idle :: _iowait :: irq :: softirq :: steal :: _ ->
      (user +. nice +. system +. irq +. softirq +. steal, steal)
    | _ -> (0., 0.))

type window = { busy0 : float; steal0 : float }

let window () =
  let busy0, steal0 = cpu_ticks () in
  { busy0; steal0 }

let steal_share w =
  let busy, steal = cpu_ticks () in
  ratio (steal -. w.steal0) (busy -. w.busy0)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* --- metrics ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* --- checks ------------------------------------------------------------- *)

(* Every failed output check is one failed operation; the messages go to
   stderr. *)
let failures = ref 0
let failures_lock = Mutex.create ()

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then
        Mutex.protect failures_lock (fun () ->
            incr failures;
            if !failures <= 20 then prerr_endline ("check failed: " ^ msg)))
    fmt

type expect = { sends : int; coll : float; sim : float }

let load_expected path =
  let doc = get_ok path (Json.parse (In_channel.with_open_text path In_channel.input_all)) in
  fun workload label ->
    let ( >>= ) = Option.bind in
    Json.member workload doc >>= Json.member label >>= fun e ->
    Json.member "sends" e >>= Json.to_int >>= fun sends ->
    Json.member "coll_us" e >>= Json.to_float >>= fun coll ->
    Json.member "sim_us" e >>= Json.to_float >>= fun sim -> Some { sends; coll; sim }

let expect_json e =
  Json.Object
    [
      ("sends", Json.Number (float_of_int e.sends));
      ("coll_us", Json.Number e.coll);
      ("sim_us", Json.Number e.sim);
    ]

let ideal_time topo (spec : Spec.t) =
  let size = spec.Spec.buffer_size in
  match spec.Spec.pattern with
  | Pattern.All_reduce -> Ideal.all_reduce_time topo ~size
  | Pattern.All_gather -> Ideal.all_gather_time topo ~size
  | Pattern.Reduce_scatter -> Ideal.reduce_scatter_time topo ~size
  | _ -> 0.

let at_least_ideal ~what ~ideal coll =
  check (coll >= ideal *. (1. -. 1e-9)) "%s: collective time %.6g us below the Ideal bound %.6g us"
    what (coll *. 1e6) (ideal *. 1e6)

(* --- run skeleton shared by all workloads -------------------------------- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  expected : string -> string -> expect option;  (** workload -> label -> *)
  state : string;  (** scratch directory inside the checkout *)
}

(* Set-up is timed in batches, so that set-ups of a millisecond are not
   read off single timings: a batch repeats the set-up until it holds 0.3 s
   of it, and the figure is the median over 5 batches of the mean set-up
   time, steal-adjusted per batch. Each repetition starts from a compacted
   heap; [f] returns the set-up's value and a teardown, and neither the
   compaction nor the teardown is timed. *)
let measure_setup f =
  let batch () =
    let w = window () in
    let rec go n spent =
      Gc.compact ();
      let t0 = now () in
      let v, teardown = f () in
      let spent = spent +. (now () -. t0) in
      teardown ();
      if spent >= 0.3 then (v, spent /. float_of_int n *. (1. -. steal_share w)) else go (n + 1) spent
    in
    go 1 0.
  in
  let batches = List.init 5 (fun _ -> batch ()) in
  (fst (List.hd batches), median (List.map snd batches))

(* With [warmup], one pass first that is not measured (its outputs are
   checked like any other's), then passes until the time [deadline], at
   least one: another pass starts while it would end, at the mean pass time
   so far, less than half a pass late. Returns the measured passes and the
   number of passes run. *)
let passes ~warmup ~deadline f =
  let t0 = now () in
  if warmup then ignore (f ());
  let before = if warmup then 1 else 0 in
  let rec go i acc =
    let t = now () in
    if i > 0 && t +. (0.5 *. (t -. t0) /. float_of_int (before + i)) >= deadline then
      (List.rev acc, before + i)
    else go (i + 1) (f () :: acc)
  in
  go 0 []

(* One pass's end-to-end figures. [latencies] are per-request seconds. *)
type e2e = {
  algo : float;
  total : float;
  latencies : float list;
  coll_us : float;
  sim_us : float;
}

(* Every per-pass figure is reported as its median over the measured passes.
   Latency percentiles are taken over the requests of all measured passes
   together when [pooled] (serve_mix: 1,000 requests a pass, so a run's p99
   has at least 10 beyond it in every pass and many more in the run), and
   otherwise per pass (the synthesis workloads hold one to five requests a
   pass, where a pooled p99 would be the slowest pass of the run). *)
let e2e_metrics ~pooled ~setup (passes : e2e list) =
  let per_pass f = median (List.map f passes) in
  let latency q =
    1e3
    *.
    if pooled then percentile q (List.concat_map (fun p -> p.latencies) passes)
    else per_pass (fun p -> percentile q p.latencies)
  in
  [
    m "setup_s" "s" setup;
    m "algo_s" "s" (per_pass (fun p -> p.algo));
    m "total_s" "s" (per_pass (fun p -> p.total));
    m "coll_time_us" "sim_us" (per_pass (fun p -> p.coll_us));
    m "sim_time_us" "sim_us" (per_pass (fun p -> p.sim_us));
    m "peak_rss_mb" "MB" (peak_rss_mb ());
    m "req_per_s" "1/s" (per_pass (fun p -> ratio (float_of_int (List.length p.latencies)) p.total));
    m "req_p50_ms" "ms" (latency 50.);
    m "req_p99_ms" "ms" (latency 99.);
  ]

let timing_metrics = [ "algo_s"; "total_s"; "req_p50_ms"; "req_p99_ms"; "req_per_s" ]

(* Traced-run bookkeeping: self time per layer over the request trees of
   each traced pass, plus the tracing overhead against the untraced half. *)
let layers = [ "parse"; "synthesizer"; "schedule"; "program"; "engine"; "plan"; "service" ]

let self_metrics span_sets =
  let per_pass =
    List.map
      (fun spans ->
        let selfs, roots = Span.self_times spans in
        let get l = Option.value ~default:0. (List.assoc_opt l selfs) in
        (get, roots))
      span_sets
  in
  let med f = median (List.map f per_pass) in
  List.map (fun l -> m ("self." ^ l ^ "_s") "s" (med (fun (get, _) -> get l))) layers
  @ [
      m "self.unattributed_s" "s" (med (fun (get, _) -> get "unattributed"));
      m "trace.coverage" "ratio"
        (med (fun (get, roots) -> ratio (roots -. get "unattributed") roots));
      m "trace.spans" "count"
        (float_of_int (List.fold_left (fun a s -> a + List.length s) 0 span_sets));
    ]

let overhead_metrics ~untraced ~traced =
  let find ms n = (List.find (fun x -> x.name = n) ms).value in
  List.map
    (fun n ->
      let u = find untraced n in
      m ("overhead." ^ n) (List.find (fun x -> x.name = n) untraced).unit_ (find traced n -. u))
    timing_metrics

(* --- synthesis workloads: hetero_ar, torus512_ar, hier_1k ---------------- *)

type prepared = { req : Gen.request; spec : Spec.t; ideal : float; expect : expect option }

let parse_topology = function
  | Gen.Desc d -> Parse.parse_topology d
  | Gen.Lines ls -> Parse.parse_topology_lines ~name:"generated" ls

let make_spec topo ~pattern ~size ~chunks =
  let npus = Topology.num_npus topo in
  Spec.make ~chunks_per_npu:chunks
    ~buffer_size:(get_ok size (Parse.parse_size size))
    ~pattern:(get_ok pattern (Parse.parse_pattern pattern npus))
    ~npus ()

let request_spec topo (r : Gen.request) =
  make_spec topo ~pattern:r.pattern ~size:r.size ~chunks:r.chunks

let label (r : Gen.request) = Printf.sprintf "%s@%d" r.label r.synth_seed

let prepare ~expected (requests : Gen.request list) =
  List.map
    (fun (r : Gen.request) ->
      let topo = get_ok r.label (parse_topology r.topology) in
      let spec = request_spec topo r in
      { req = r; spec; ideal = ideal_time topo spec; expect = expected (label r) })
    requests

(* What one request produced, for the checks and the per-layer ledger. *)
type outcome = {
  sends : int;
  coll : float;
  sim : float;
  algo_s : float;
  total_s : float;
  synth_s : float;
  validate_s : float;
  lower_s : float;
  run_s : float;
  transfers : int;
  alloc : (string * float) list;  (** stage -> bytes, traced runs *)
  topo : Topology.t;
  result : Synth.result;
  plan : (Plan.t * Tacos_groups.Group.t list) option;
}

(* A stage call: timed, spanned, and in traced runs its allocation counted.
   Validation, lowering and replay run on the calling domain, so
   [Gc.allocated_bytes] sees all of their allocation; synthesis may fan out
   over the pool, and its allocation is counted in the one-domain probe of
   [probe_pass] instead. *)
let stage ~alloc name f =
  Span.run name (fun () ->
      let a0 = if alloc then Gc.allocated_bytes () else 0. in
      let t0 = now () in
      let v = f () in
      let dt = now () -. t0 in
      (v, dt, if alloc then Gc.allocated_bytes () -. a0 else 0.))

let run_request ~alloc ~rid (p : prepared) =
  let r = p.req in
  Span.request rid (fun () ->
      let t0 = now () in
      let topo, _, _ = stage ~alloc:false "parse.topology" (fun () -> get_ok r.label (parse_topology r.topology)) in
      let spec = request_spec topo r in
      let (result, plan), synth_s, _ =
        if r.hierarchical then
          stage ~alloc:false "plan.synthesize" (fun () ->
              let groups = get_ok "decompose" (Plan.decompose topo Plan.Auto) in
              let plan =
                Plan.synthesize ~seed:r.synth_seed ~trials:r.trials ~domains:r.domains topo spec
                  ~groups
              in
              (plan.Plan.result, Some (plan, groups)))
        else
          stage ~alloc:false "synthesizer.synthesize" (fun () ->
              ( Synth.synthesize ~seed:r.synth_seed ~trials:r.trials ~domains:r.domains topo spec,
                None ))
      in
      let verdict, validate_s, validate_alloc =
        stage ~alloc "schedule.validate" (fun () -> Synth.verify topo result)
      in
      check (verdict = Ok ()) "%s: schedule fails verification: %s" r.label
        (match verdict with Error e -> e | Ok () -> "");
      let algo_s = now () -. t0 in
      let sim, transfers, lower_s, run_s, lower_alloc, run_alloc =
        if r.replay then begin
          let program, lower_s, lower_alloc =
            stage ~alloc "program.of_schedule" (fun () ->
                Program.of_schedule ~chunk_size:(Spec.chunk_size spec) result.Synth.schedule)
          in
          let report, run_s, run_alloc = stage ~alloc "engine.run" (fun () -> Engine.run topo program) in
          ( report.Engine.finish_time,
            Program.num_transfers program,
            lower_s,
            run_s,
            lower_alloc,
            run_alloc )
        end
        else (result.Synth.collective_time, 0, 0., 0., 0., 0.)
      in
      {
        sends = Schedule.num_sends result.Synth.schedule;
        coll = result.Synth.collective_time;
        sim;
        algo_s;
        total_s = now () -. t0;
        synth_s;
        validate_s;
        lower_s;
        run_s;
        transfers;
        alloc =
          [
            ("schedule.validate", validate_alloc);
            ("program", lower_alloc);
            ("engine", run_alloc);
          ];
        topo;
        result;
        plan;
      })

let check_outcome (p : prepared) (o : outcome) =
  let what = p.req.label in
  at_least_ideal ~what ~ideal:p.ideal o.coll;
  match p.expect with
  | None -> check false "%s: no expected values recorded for %s" what (label p.req)
  | Some e ->
    check (o.sends = e.sends) "%s: %d sends, expected %d" what o.sends e.sends;
    check (o.coll *. 1e6 = e.coll) "%s: collective time %.17g us, expected %.17g" what
      (o.coll *. 1e6) e.coll;
    check (o.sim *. 1e6 = e.sim) "%s: simulated time %.17g us, expected %.17g" what (o.sim *. 1e6)
      e.sim

let pass_e2e (outs : outcome list) =
  {
    algo = sum (List.map (fun o -> o.algo_s) outs);
    total = sum (List.map (fun o -> o.total_s) outs);
    latencies = List.map (fun o -> o.total_s) outs;
    coll_us = geomean (List.map (fun o -> o.coll *. 1e6) outs);
    sim_us = geomean (List.map (fun o -> o.sim *. 1e6) outs);
  }

(* Per-layer figures of one traced pass. The probes below re-run pieces of
   the request outside the request span, so they do not count towards the
   end-to-end numbers: the phases synthesized alone, the All-Reduce
   assembly on the run's own phase schedules, and the same synthesis at one
   domain for the pool speed-up and the synthesizer's allocation. *)
let probe_pass ~pick_scans ~parse_ms (preps : prepared list) (outs : outcome list) =
  let time f =
    let t0 = now () in
    ignore (Sys.opaque_identity (f ()));
    now () -. t0
  in
  let flat = List.filter (fun (p, _) -> not p.req.hierarchical) (List.combine preps outs) in
  let phase_time pattern =
    sum
      (List.map
         (fun ((p : prepared), (o : outcome)) ->
           let r = p.req in
           let spec = Spec.with_pattern p.spec pattern in
           time (fun () ->
               Synth.synthesize ~seed:r.synth_seed ~trials:r.trials ~domains:r.domains o.topo spec))
         flat)
  in
  let ag_s = phase_time Pattern.All_gather in
  let rs_s = phase_time Pattern.Reduce_scatter in
  let assembly_s =
    sum
      (List.map
         (fun (o : outcome) ->
           match o.result.Synth.phases with
           | None -> 0.
           | Some (rs, ag) ->
             time (fun () ->
                 let ag0 = Schedule.shift ag (-.rs.Schedule.makespan) in
                 ignore (Sys.opaque_identity (Schedule.reverse rs));
                 ignore (Sys.opaque_identity (Schedule.make rs.Schedule.sends));
                 Schedule.concat rs ag0))
         outs)
  in
  let one_domain =
    List.map2
      (fun (p : prepared) (o : outcome) ->
        let r = p.req in
        let a0 = Gc.allocated_bytes () in
        let t =
          match o.plan with
          | Some (_, groups) ->
            time (fun () ->
                Plan.synthesize ~seed:r.synth_seed ~trials:r.trials ~domains:1 o.topo p.spec ~groups)
          | None ->
            time (fun () -> Synth.synthesize ~seed:r.synth_seed ~trials:r.trials ~domains:1 o.topo p.spec)
        in
        (t, Gc.allocated_bytes () -. a0))
      preps outs
  in
  let d1 = sum (List.map fst one_domain) in
  let tot f = sum (List.map f outs) in
  let synth_s = tot (fun o -> o.result.Synth.stats.Synth.wall_seconds) in
  let matches = tot (fun o -> float_of_int o.result.Synth.stats.Synth.matches) in
  let alloc key = tot (fun o -> Option.value ~default:0. (List.assoc_opt key o.alloc)) /. 1e6 in
  let plans = List.filter_map (fun o -> Option.map fst o.plan) outs in
  let plan_tot f = sum (List.map f plans) in
  let syntheses = plan_tot (fun p -> float_of_int p.Plan.syntheses) in
  let dedup = plan_tot (fun p -> float_of_int p.Plan.dedup_hits) in
  let phase name =
    plan_tot (fun p ->
        sum
          (List.filter_map
             (fun (i : Plan.phase_info) ->
               if i.Plan.phase = name then Some i.Plan.wall_seconds else None)
             p.Plan.phase_infos))
  in
  let transfers = tot (fun o -> float_of_int o.transfers) in
  let run_s = tot (fun o -> o.run_s) in
  [
    m "parse.topology_ms" "ms" parse_ms;
    m "synthesizer.s" "s" synth_s;
    m "synthesizer.rounds" "count" (tot (fun o -> float_of_int o.result.Synth.stats.Synth.rounds));
    m "synthesizer.matches" "count" matches;
    m "synthesizer.matches_per_s" "1/s" (ratio matches synth_s);
    m "synthesizer.ag_s" "s" ag_s;
    m "synthesizer.rs_s" "s" rs_s;
    m "synthesizer.alloc_mb" "MB" (sum (List.map snd one_domain) /. 1e6);
    m "synthesizer.pick_scans" "count" pick_scans;
    m "schedule.assembly_s" "s" assembly_s;
    m "schedule.validate_s" "s" (tot (fun o -> o.validate_s));
    m "schedule.validate_alloc_mb" "MB" (alloc "schedule.validate");
    m "program.of_schedule_s" "s" (tot (fun o -> o.lower_s));
    m "program.transfers" "count" transfers;
    m "program.alloc_mb" "MB" (alloc "program");
    m "engine.run_s" "s" run_s;
    m "engine.transfers_per_s" "1/s" (ratio transfers run_s);
    m "engine.alloc_mb" "MB" (alloc "engine");
    m "plan.synthesize_s" "s" (sum (List.map (fun o -> if o.plan = None then 0. else o.synth_s) outs));
    m "plan.syntheses" "count" syntheses;
    m "plan.dedup_hits" "count" dedup;
    m "plan.dedup_ratio" "ratio" (ratio dedup (syntheses +. dedup));
    m "plan.phase_s.intra-reduce-scatter" "s" (phase "intra-reduce-scatter");
    m "plan.phase_s.inter-all-reduce" "s" (phase "inter-all-reduce");
    m "plan.phase_s.intra-all-gather" "s" (phase "intra-all-gather");
    m "pool.fanout_speedup" "ratio" (ratio d1 (tot (fun o -> o.synth_s)));
  ]

let pick_scans_counter = Obs.counter "synth.pick_scans"

let synth_workload opts =
  let requests = Gen.synth_requests ~workload:opts.workload ~seed:opts.seed in
  (* The synthesizer draws on the global pool, spawned here once. Set-up
     spawns a pool of the same width in each repetition, so that its cost
     is in every timing. *)
  let width = List.fold_left (fun a (r : Gen.request) -> max a r.domains) 1 requests in
  ignore (Pool.global ~size:width ());
  let preps, setup =
    measure_setup (fun () ->
        let preps = prepare ~expected:(opts.expected opts.workload) requests in
        let pool = Pool.create ~size:width () in
        (preps, fun () -> Pool.shutdown pool))
  in
  let rid = ref 0 in
  let one_pass ~traced () =
    if traced then Obs.reset ();
    (* Each request starts from a compacted heap, as in a fresh process, so
       that one request's garbage is not collected on the next one's time. *)
    let outs =
      List.map
        (fun p ->
          incr rid;
          Gc.compact ();
          run_request ~alloc:traced ~rid:!rid p)
        preps
    in
    let pick_scans = float_of_int (Obs.value pick_scans_counter) in
    List.iter2 check_outcome preps outs;
    let spans = if traced then Span.drain () else [] in
    let layer =
      if traced then
        let parse_ms =
          median
            (List.filter_map
               (fun (s : Span.t) ->
                 if s.name = "parse.topology" then Some (1e3 *. Span.duration s) else None)
               spans)
        in
        probe_pass ~pick_scans ~parse_ms preps outs
      else []
    in
    (pass_e2e outs, layer, spans)
  in
  (setup, one_pass, List.length preps)

(* --- serve_mix ------------------------------------------------------------ *)

type key_info = {
  key : Gen.key;
  ktopo : Topology.t;
  kspec : Spec.t;
  kideal : float;
  kexpect : expect option;
  ktune : expect option;  (** [coll] unused; [sim] is the tuned replay time *)
}

type sample = { l : Gen.line; resp : string; dt : float; half : int }

let key_spec (k : Gen.key) =
  let topo = get_ok k.topo (Parse.parse_topology k.topo) in
  (topo, make_spec topo ~pattern:k.pattern ~size:k.size ~chunks:k.chunks)

let tune_label (k : Gen.key) seed = Printf.sprintf "tune:%s/%s@%d" k.topo k.pattern seed
let key_label (k : Gen.key) seed = Printf.sprintf "%s@%d" (Gen.key_name k) seed

(* The miss backend the service runs: the same synthesis its default
   backend runs, spanned, with each result kept for verification. *)
let backend_log = ref []
let backend_lock = Mutex.create ()

let backend ~deadline ~sketch ~seed ~domains topo spec =
  let r =
    Span.run "synthesizer.synthesize" (fun () ->
        Synth.synthesize ~seed ~trials:1 ~domains ?deadline ?sketch topo spec)
  in
  Mutex.protect backend_lock (fun () -> backend_log := (topo, r) :: !backend_log);
  r

let member_num name j = Option.bind (Json.member name j) Json.to_float
let member_str name j = Option.bind (Json.member name j) Json.to_string

(* Sends listed in a CSV export: one "chunk:start:finish" cell per send in
   the per-link rows below the column header. *)
let csv_sends csv =
  let rows = String.split_on_char '\n' csv in
  let rec after_header = function
    | [] -> []
    | r :: rest -> if String.starts_with ~prefix:"SrcID," r then rest else after_header rest
  in
  List.fold_left
    (fun acc row ->
      match String.split_on_char ',' row with
      | _ :: _ :: _ :: _ :: cells -> acc + List.length cells
      | _ -> acc)
    0 (after_header rows)

(* Checks every response of a pass; returns, per key, the collective time
   reported, and per tune key the simulated time. *)
let check_serve_pass (keys : key_info array) ~serve_seed (samples : sample list) stats =
  let seen = Hashtbl.create 32 in
  let tuned = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let what = Printf.sprintf "request %d" s.l.Gen.id in
      match Json.parse s.resp with
      | Error e -> check false "%s: unparseable response: %s" what e
      | Ok j -> (
        let ok = member_str "status" j = Some "ok" in
        check ok "%s: status %s" what (Option.value ~default:"?" (member_str "status" j));
        if ok then
          match s.l.Gen.kind with
          | Gen.Stats | Gen.Metrics -> ()
          | Gen.Tune k ->
            let info = keys.(k) in
            let time = Option.value ~default:0. (member_num "collective_time" j) in
            let sends = Option.value ~default:0. (member_num "sends" j) in
            Hashtbl.replace tuned k time;
            (match info.ktune with
            | None -> check false "%s: no expected tune values for %s" what (tune_label info.key serve_seed)
            | Some e ->
              check (int_of_float sends = e.sends && time *. 1e6 = e.sim)
                "%s: tune answered %g sends / %.17g us, expected %d / %.17g" what sends (time *. 1e6)
                e.sends e.sim)
          | Gen.Synthesize k | Gen.Export_json k | Gen.Export_csv k ->
            let info = keys.(k) in
            let name = Gen.key_name info.key in
            (* A key's first request in a half is a synthesize, so every
               miss is a synthesize and every export a hit. *)
            (match s.l.Gen.kind with
            | Gen.Export_json _ | Gen.Export_csv _ ->
              check (Json.member "cached" j = Some (Json.Bool true)) "%s: export of %s missed the cache" what name
            | _ -> ());
            check (member_str "degraded" j = None && Json.member "degraded" j = Some (Json.Bool false))
              "%s: degraded answer" what;
            let time = Option.value ~default:0. (member_num "collective_time" j) in
            let sends = int_of_float (Option.value ~default:0. (member_num "sends" j)) in
            (match Hashtbl.find_opt seen k with
            | None -> Hashtbl.replace seen k (sends, time)
            | Some (s0, t0) ->
              check (s0 = sends && t0 = time)
                "%s: key %s answered %d sends / %.17g s, earlier %d / %.17g" what name sends time s0 t0);
            (match s.l.Gen.kind with
            | Gen.Export_json _ ->
              let listed =
                Option.bind (Json.member "schedule" j) (fun d ->
                    Option.bind (Json.member "sends" d) Json.to_list)
              in
              check (Option.map List.length listed = Some sends)
                "%s: JSON export of %s does not list its %d sends" what name sends
            | Gen.Export_csv _ ->
              let cells = Option.fold ~none:(-1) ~some:csv_sends (member_str "csv" j) in
              check (cells = sends) "%s: CSV export of %s lists %d of %d sends" what name cells sends
            | _ -> ())))
    samples;
  Hashtbl.iter
    (fun k (sends, time) ->
      let info = keys.(k) in
      let name = Gen.key_name info.key in
      at_least_ideal ~what:name ~ideal:info.kideal time;
      match info.kexpect with
      | None -> check false "no expected values recorded for %s" (key_label info.key serve_seed)
      | Some e ->
        check (sends = e.sends && time *. 1e6 = e.coll)
          "%s: %d sends / %.17g us, expected %d / %.17g" name sends (time *. 1e6) e.sends e.coll)
    seen;
  check (Hashtbl.length seen = Array.length keys) "only %d of %d keys answered" (Hashtbl.length seen)
    (Array.length keys);
  (* First half: every key misses exactly once (tune answers count as
     misses too). Second half, after the restart: every key is a disk hit. *)
  let tunes half =
    List.length
      (List.filter (fun s -> s.half = half && match s.l.Gen.kind with Gen.Tune _ -> true | _ -> false) samples)
  in
  List.iteri
    (fun half (st : Service.stats) ->
      let expected = (if half = 0 then Array.length keys else 0) + tunes half in
      check (st.Service.misses = expected) "half %d: %d misses, expected %d" half st.Service.misses expected;
      check (st.Service.errors = 0 && st.Service.shed = 0 && st.Service.degraded = 0)
        "half %d: %d errors, %d shed, %d degraded" half st.Service.errors st.Service.shed
        st.Service.degraded)
    stats;
  (seen, tuned)

let service_config dir = { Service.default_config with registry_dir = Some dir; queue_limit = 64 }

let serve_setup opts =
  let serve_seed = Gen.serve_seed ~seed:opts.seed in
  let keys =
    Array.map
      (fun (k : Gen.key) ->
        let topo, spec = key_spec k in
        {
          key = k;
          ktopo = topo;
          kspec = spec;
          kideal = ideal_time topo spec;
          kexpect = opts.expected "serve_mix" (key_label k serve_seed);
          ktune = opts.expected "serve_mix" (tune_label k serve_seed);
        })
      Gen.keys
  in
  let dir = Filename.concat opts.state "registry-setup" in
  rm_rf dir;
  let svc = Service.create ~config:(service_config dir) ~synthesize:backend () in
  ignore (Service.handle_line svc {|{"op":"ping"}|});
  (keys, fun () -> rm_rf dir)

let is_cached resp =
  match Json.parse resp with
  | Ok j -> Json.member "cached" j = Some (Json.Bool true)
  | Error _ -> false

(* Per-layer figures of one traced serve pass. The service's internal
   calls into Protocol, Parse and Registry are not visible from outside, so
   after the pass they are re-run on the same request lines and the same
   registry, outside any request span; a fresh registry over the pass's
   directory times the disk loads and the schedule codec. *)
let serve_layers keys ~dir ~pick_scans (halves : (Service.t * sample list) array) spans =
  let samples = List.concat_map snd (Array.to_list halves) in
  let synth_of = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.t) ->
      if s.name = "synthesizer.synthesize" then
        Hashtbl.replace synth_of s.req
          (Span.duration s +. Option.value ~default:0. (Hashtbl.find_opt synth_of s.req)))
    spans;
  let synth_s s = Option.value ~default:0. (Hashtbl.find_opt synth_of s.l.Gen.id) in
  let ms = List.map (fun s -> 1e3 *. s.dt) in
  let where f = List.filter (fun s -> f s.l.Gen.kind) samples in
  let synth_samples = where (function Gen.Synthesize _ -> true | _ -> false) in
  let hits, misses = List.partition (fun s -> is_cached s.resp) synth_samples in
  let big = Array.length keys - 1 in
  let big_misses = List.filter (fun s -> s.l.Gen.kind = Gen.Synthesize big) misses in
  let persist l = sum (List.map (fun s -> s.dt -. synth_s s) l) in
  let collective = where (function Gen.Synthesize _ | Gen.Export_json _ | Gen.Export_csv _ -> true | _ -> false) in
  let cached = List.length (List.filter (fun s -> is_cached s.resp) collective) in
  let timed f =
    let t0 = now () in
    let v = f () in
    (v, now () -. t0)
  in
  let replay =
    List.map
      (fun s ->
        let k = match s.l.Gen.kind with Gen.Synthesize k -> k | _ -> 0 in
        let svc = fst halves.(s.half) in
        let _, t_req = timed (fun () -> Span.run "protocol.parse_request" (fun () -> Protocol.parse_request s.l.Gen.line)) in
        let topo, t_parse =
          timed (fun () -> Span.run "parse.topology" (fun () -> get_ok "topology" (Parse.parse_topology keys.(k).key.Gen.topo)))
        in
        let _, t_fp = timed (fun () -> Span.run "registry.fingerprint" (fun () -> Registry.fingerprint topo)) in
        let _, t_find =
          timed (fun () ->
              Span.run "registry.find_cached" (fun () ->
                  Registry.find_cached (Service.registry svc) topo keys.(k).kspec))
        in
        (t_req, t_parse, t_fp, t_find))
      synth_samples
  in
  let fresh = Registry.create ~dir () in
  let loads =
    Array.to_list
      (Array.map
         (fun info ->
           let r, t = timed (fun () -> Span.run "registry.find_cached" (fun () -> Registry.find_cached fresh info.ktopo info.kspec)) in
           check (r <> None) "%s: not found on disk" (Gen.key_name info.key);
           (info, r, t))
         keys)
  in
  let codec =
    List.filter_map
      (fun (info, r, _) ->
        Option.map
          (fun (r : Synth.result) ->
            let text, t_enc =
              timed (fun () -> Span.run "schedule.to_json" (fun () -> Schedule.to_json ~spec:info.kspec r.Synth.schedule))
            in
            let back, t_dec = timed (fun () -> Span.run "schedule.of_json" (fun () -> Schedule.of_json text)) in
            check (Result.map Schedule.num_sends back = Ok (Schedule.num_sends r.Synth.schedule))
              "%s: JSON round trip lost sends" (Gen.key_name info.key);
            (float_of_int (String.length text), t_enc, t_dec))
          r)
      loads
  in
  let results = Mutex.protect backend_lock (fun () -> !backend_log) in
  let synth_total = Hashtbl.fold (fun _ v acc -> acc +. v) synth_of 0. in
  let matches = sum (List.map (fun (_, r) -> float_of_int r.Synth.stats.Synth.matches) results) in
  let last_stats = Service.stats (fst halves.(Array.length halves - 1)) in
  let field4 f = List.map f replay in
  [
    m "parse.topology_ms" "ms" (1e3 *. median (field4 (fun (_, t, _, _) -> t)));
    m "registry.fingerprint_ms" "ms" (1e3 *. median (field4 (fun (_, _, t, _) -> t)));
    m "registry.find_cached_ms" "ms" (1e3 *. median (field4 (fun (_, _, _, t) -> t)));
    m "registry.disk_load_ms" "ms" (1e3 *. median (List.map (fun (_, _, t) -> t) loads));
    m "registry.hit_ratio" "ratio" (ratio (float_of_int cached) (float_of_int (List.length collective)));
    m "registry.persist_ms" "ms" (1e3 *. persist misses);
    m "registry.persist_big_ms" "ms" (1e3 *. persist big_misses);
    m "registry.disk_bytes" "bytes" (float_of_int last_stats.Service.disk.Registry.disk_bytes);
    m "schedule.to_json_s" "s" (sum (List.map (fun (_, t, _) -> t) codec));
    m "schedule.to_json_bytes" "bytes" (sum (List.map (fun (b, _, _) -> b) codec));
    m "schedule.of_json_s" "s" (sum (List.map (fun (_, _, t) -> t) codec));
    m "protocol.parse_request_us" "us" (1e6 *. median (field4 (fun (t, _, _, _) -> t)));
    m "service.hit_ms" "ms" (median (ms hits));
    m "service.miss_ms" "ms" (sum (ms misses));
    m "service.synth_ms" "ms" (1e3 *. sum (List.map synth_s misses));
    m "service.synth_big_ms" "ms" (1e3 *. sum (List.map synth_s big_misses));
    m "service.export_json_ms" "ms" (median (ms (where (function Gen.Export_json _ -> true | _ -> false))));
    m "service.export_csv_ms" "ms" (median (ms (where (function Gen.Export_csv _ -> true | _ -> false))));
    m "service.tune_ms" "ms" (median (ms (where (function Gen.Tune _ -> true | _ -> false))));
    m "synthesizer.s" "s" synth_total;
    m "synthesizer.rounds" "count" (sum (List.map (fun (_, r) -> float_of_int r.Synth.stats.Synth.rounds) results));
    m "synthesizer.matches" "count" matches;
    m "synthesizer.matches_per_s" "1/s" (ratio matches synth_total);
    m "synthesizer.pick_scans" "count" pick_scans;
  ]

let serve_workload opts =
  let keys, setup = measure_setup (fun () -> serve_setup opts) in
  let pass = ref 0 in
  let one_pass ~traced () =
    let input = Gen.serve_requests ~seed:opts.seed ~pass:!pass in
    incr pass;
    let dir = Filename.concat opts.state (Printf.sprintf "registry-%d" !pass) in
    rm_rf dir;
    Mutex.protect backend_lock (fun () -> backend_log := []);
    if traced then Obs.reset ();
    Gc.compact ();
    let t0 = now () in
    let halves =
      Array.mapi
        (fun half (streams : Gen.line array array) ->
          let svc = Service.create ~config:(service_config dir) ~synthesize:backend () in
          (* A closed-loop client: each request is sent as soon as the
             previous one is answered. *)
          let client stream =
            Array.to_list
              (Array.map
                 (fun (l : Gen.line) ->
                   Span.request l.Gen.id (fun () ->
                       let s = now () in
                       let resp =
                         Span.run "service.handle_line" (fun () -> Service.handle_line svc l.Gen.line)
                       in
                       { l; resp; dt = now () -. s; half }))
                 stream)
          in
          let others =
            List.map (fun st -> Domain.spawn (fun () -> client st)) (List.tl (Array.to_list streams))
          in
          let mine = client streams.(0) in
          (svc, mine @ List.concat_map Domain.join others))
        input.Gen.halves
    in
    let wall = now () -. t0 in
    let pick_scans = float_of_int (Obs.value pick_scans_counter) in
    let samples = List.concat_map snd (Array.to_list halves) in
    let stats = List.map (fun (svc, _) -> Service.stats svc) (Array.to_list halves) in
    let seen, tuned = check_serve_pass keys ~serve_seed:input.Gen.serve_seed samples stats in
    List.iter
      (fun (topo, r) ->
        check (Synth.verify topo r = Ok ()) "served schedule for %s fails verification"
          (Topology.name topo))
      (Mutex.protect backend_lock (fun () -> !backend_log));
    let e2e =
      {
        algo =
          sum
            (List.filter_map
               (fun s -> match s.l.Gen.kind with Gen.Synthesize _ -> Some s.dt | _ -> None)
               samples);
        total = wall;
        latencies = List.map (fun s -> s.dt) samples;
        coll_us = geomean (Hashtbl.fold (fun _ (_, t) acc -> (t *. 1e6) :: acc) seen []);
        sim_us = geomean (Hashtbl.fold (fun _ t acc -> (t *. 1e6) :: acc) tuned []);
      }
    in
    let spans, layer =
      if traced then begin
        let spans = Span.drain () in
        let layer = serve_layers keys ~dir ~pick_scans halves spans in
        (spans @ Span.drain (), layer)
      end
      else ([], [])
    in
    rm_rf dir;
    (e2e, layer, spans)
  in
  (setup, one_pass, 2 * Gen.half_requests)

(* --- per-layer ledger ------------------------------------------------------ *)

(* The per-layer metrics, by name and unit, as BENCHMARK.json lists them. *)
let listed_per_layer path =
  let doc = get_ok path (Json.parse (In_channel.with_open_text path In_channel.input_all)) in
  match Option.bind (Json.member "per_layer" doc) Json.to_list with
  | None -> failwith (path ^ ": no per_layer list")
  | Some entries ->
    List.map
      (fun e ->
        match (member_str "name" e, member_str "unit" e) with
        | Some n, Some u -> (n, u)
        | _ -> failwith (path ^ ": per_layer entry without name or unit"))
      entries

(* Every listed metric, in the listed order: the median over passes of the
   values the passes emitted, 0 where no pass emitted it (a workload that
   does not exercise a layer), or its value in [whole_run]. An emitted
   metric that is not listed, or listed with another unit, is an error. *)
let ledger ~listed ~whole_run (per_pass : metric list list) =
  List.iter
    (fun x ->
      match List.assoc_opt x.name listed with
      | Some u when u = x.unit_ -> ()
      | Some u -> failwith (Printf.sprintf "%s: unit %s, listed as %s" x.name x.unit_ u)
      | None -> failwith (x.name ^ ": not listed in per_layer"))
    (whole_run @ List.concat per_pass);
  List.map
    (fun (name, unit_) ->
      let value =
        match List.find_opt (fun x -> x.name = name) whole_run with
        | Some x -> x.value
        | None ->
          median
            (List.filter_map
               (fun ms -> Option.map (fun x -> x.value) (List.find_opt (fun x -> x.name = name) ms))
               per_pass)
      in
      m name unit_ value)
    listed

(* --- recording the expected values ----------------------------------------- *)

let record path =
  let synth w =
    let entries =
      List.concat_map
        (fun s ->
          let requests =
            List.map (fun (r : Gen.request) -> { r with synth_seed = s }) (Gen.synth_requests ~workload:w ~seed:0)
          in
          List.map
            (fun (p : prepared) ->
              let o = run_request ~alloc:false ~rid:0 p in
              (label p.req, expect_json { sends = o.sends; coll = o.coll *. 1e6; sim = o.sim *. 1e6 }))
            (prepare ~expected:(fun _ -> None) requests))
        (List.init Gen.synth_seeds (fun i -> i + 1))
    in
    (w, Json.Object entries)
  in
  let serve =
    List.concat_map
      (fun s ->
        List.concat
          (List.mapi
             (fun i (k : Gen.key) ->
               let topo, spec = key_spec k in
               let r = Synth.synthesize ~seed:s ~trials:1 ~domains:1 topo spec in
               let entry =
                 ( key_label k s,
                   expect_json
                     { sends = Schedule.num_sends r.Synth.schedule; coll = r.Synth.collective_time *. 1e6; sim = 0. } )
               in
               if Array.mem i Gen.tune_keys then
                 let c =
                   Tuner.tune ~seed:s ~candidates:Gen.tune_candidates topo ~pattern:spec.Spec.pattern
                     ~size:spec.Spec.buffer_size
                 in
                 [
                   entry;
                   ( tune_label k s,
                     expect_json
                       {
                         sends = Schedule.num_sends c.Tuner.result.Synth.schedule;
                         coll = 0.;
                         sim = c.Tuner.simulated_time *. 1e6;
                       } );
                 ]
               else [ entry ])
             (Array.to_list Gen.keys)))
      (List.init Gen.synth_seeds (fun i -> i + 1))
  in
  let doc =
    Json.Object
      (List.map synth [ "hetero_ar"; "torus512_ar"; "hier_1k" ] @ [ ("serve_mix", Json.Object serve) ])
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.encode doc);
      output_char oc '\n')

(* --- main ------------------------------------------------------------------ *)

let metric_json x = (x.name, Json.Object [ ("value", Json.Number x.value); ("unit", Json.String x.unit_) ])

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let record_to = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W hetero_ar | torus512_ar | hier_1k | serve_mix");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--record", Arg.Set_string record_to, "PATH record the expected values and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !record_to <> "" then record !record_to
  else begin
    let started = now () in
    let state = ".perfbench" in
    if not (Sys.file_exists state) then Sys.mkdir state 0o755;
    let opts =
      {
        workload = !workload;
        seed = !seed;
        seconds = !seconds;
        trace = !trace = 1;
        expected = load_expected "perfbench/expected.json";
        state;
      }
    in
    let setup, one_pass, per_pass =
      match opts.workload with
      | "serve_mix" -> serve_workload opts
      | "hetero_ar" | "torus512_ar" | "hier_1k" -> synth_workload opts
      | w -> failwith ("unknown workload " ^ w)
    in
    (* Each measured pass is steal-adjusted by its own window; its steal
       share joins the pass's per-layer figures. *)
    let run deadline ~traced ~warmup =
      let adjusted () =
        let w = window () in
        let e, layer, spans = one_pass ~traced () in
        let share = steal_share w in
        let k = 1. -. share in
        Printf.eprintf "%s pass: algo %.4f s, total %.4f s, steal share %.3f\n%!"
          (if traced then "traced" else "untraced") e.algo e.total share;
        ( { e with algo = k *. e.algo; total = k *. e.total; latencies = List.map (( *. ) k) e.latencies },
          m "host.steal_share" "ratio" share :: layer,
          spans )
      in
      let ps, ran = passes ~warmup ~deadline adjusted in
      ( List.map (fun (e, _, _) -> e) ps,
        List.map (fun (_, l, _) -> l) ps,
        List.map (fun (_, _, s) -> s) ps,
        ran )
    in
    let pooled = opts.workload = "serve_mix" in
    let deadline = started +. opts.seconds in
    let metrics, measured, npasses =
      if not opts.trace then begin
        let e2e, _, _, ran = run deadline ~traced:false ~warmup:true in
        (e2e_metrics ~pooled ~setup e2e, List.length e2e, ran)
      end
      else begin
        let half = (deadline +. now ()) /. 2. in
        let untraced, _, _, ran_untraced = run half ~traced:false ~warmup:true in
        Span.enable ();
        Obs.enable ();
        let traced, layers, spans, ran_traced = run deadline ~traced:true ~warmup:false in
        let file = Filename.concat opts.state (Printf.sprintf "trace-%s-%d.jsonl" opts.workload opts.seed) in
        Span.write file (List.concat spans);
        Printf.eprintf "spans written to %s\n" file;
        let whole_run =
          self_metrics spans
          @ overhead_metrics
              ~untraced:(e2e_metrics ~pooled ~setup untraced)
              ~traced:(e2e_metrics ~pooled ~setup traced)
        in
        ( ledger ~listed:(listed_per_layer "BENCHMARK.json") ~whole_run layers,
          List.length traced,
          ran_untraced + ran_traced )
      end
    in
    let attempted = npasses * per_pass in
    List.iter
      (fun x ->
        Printf.eprintf "%-36s %14.6g %s%s\n" x.name x.value x.unit_
          (if x.name = "req_p50_ms" || x.name = "req_p99_ms" then
             if pooled then Printf.sprintf " (n=%d: %d passes pooled)" (per_pass * measured) measured
             else Printf.sprintf " (n=%d a pass, median over %d passes)" per_pass measured
           else ""))
      metrics;
    Printf.eprintf "%d requests in %d passes, %d of them measured\n" attempted npasses measured;
    let failed = min attempted !failures in
    flush stderr;
    print_endline
      (Json.encode
         (Json.Object
            [
              ("correct", Json.Bool (!failures = 0));
              ("attempted", Json.Number (float_of_int attempted));
              ("failed", Json.Number (float_of_int failed));
              ("metrics", Json.Object (List.map metric_json metrics));
            ]))
  end
