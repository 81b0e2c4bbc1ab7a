(* The tacos command-line tool: synthesize topology-aware collective
   algorithms, inspect topologies, and compare against the baseline
   algorithms — the workflow of Fig. 3(b) as a CLI.

     tacos synthesize --topology mesh:3x3 --pattern all-gather --ten
     tacos compare --topology dgx1 --size 1GB
     tacos profile --topology mesh:4x4 --pattern all-reduce
     tacos faults --topology mesh:5x5 --fail-links 2 --seed 7
     tacos info --topology dragonfly:4x5 *)

open Cmdliner
open Tacos_topology
open Tacos_collective
module Synth = Tacos.Synthesizer
module Algo = Tacos_baselines.Algo
module Units = Tacos_util.Units
module Table = Tacos_util.Table
module Json = Tacos_util.Json
module Obs = Tacos_obs.Obs
module Trace = Tacos_obs.Trace
module Chrome = Tacos_obs.Chrome
module Critpath = Tacos_obs.Critpath
module Fault = Tacos_resilience.Fault
module Resilience = Tacos_resilience.Resilience
module Service = Tacos_serve.Service
module Protocol = Tacos_serve.Protocol
module Sketch = Tacos_sketch.Sketch
module Strategy = Tacos_sketch.Strategy
module Plan = Tacos_groups.Plan

(* --- common options ------------------------------------------------------ *)

let fail fmt = Printf.ksprintf (fun msg -> `Error (false, msg)) fmt

(* Counts and sizes that must be at least 1: a bad value is a usage error,
   never an exception out of the library. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let topology_arg =
  let doc =
    "Target topology: ring:N, uniring:N, fc:N, mesh:AxB[xC], torus:AxB[xC], \
     hypercube:K, switch:N, dgx1, dragonfly[:GxM], rfs:RxFxS."
  in
  Arg.(value & opt string "mesh:3x3" & info [ "t"; "topology" ] ~docv:"TOPO" ~doc)

let alpha_arg =
  let doc = "Link latency alpha in microseconds." in
  Arg.(value & opt float 0.5 & info [ "alpha" ] ~docv:"US" ~doc)

let bw_arg =
  let doc = "Link bandwidth in GB/s (heterogeneous builders scale from it)." in
  Arg.(value & opt float 50. & info [ "bandwidth"; "bw" ] ~docv:"GBPS" ~doc)

let size_arg =
  let doc = "Collective size, e.g. 1GB, 64MB, 4KB." in
  Arg.(value & opt string "64MB" & info [ "s"; "size" ] ~docv:"SIZE" ~doc)

let pattern_arg =
  let doc = "Collective pattern: all-gather, reduce-scatter, all-reduce, broadcast[:ROOT], reduce[:ROOT]." in
  Arg.(value & opt string "all-reduce" & info [ "p"; "pattern" ] ~docv:"PATTERN" ~doc)

let chunks_arg =
  let doc = "Chunks per NPU (collective decomposition granularity)." in
  Arg.(value & opt positive_int 1 & info [ "c"; "chunks" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed for the matching search." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let trials_arg =
  let doc = "Randomized synthesis restarts; the best schedule is kept." in
  Arg.(value & opt positive_int 1 & info [ "trials" ] ~docv:"N" ~doc)

let domains_arg =
  let doc =
    "Parallel OCaml domains for synthesis: randomized trials and (with \
     --groups) per-phase sub-syntheses fan out on one shared worker pool. \
     Results are bit-identical to --domains 1."
  in
  Arg.(value & opt positive_int 1 & info [ "domains" ] ~docv:"N" ~doc)

let candidates_arg ~doc =
  Arg.(
    value
    & opt (list positive_int) [ 1; 2; 4; 8; 16 ]
    & info [ "candidates" ] ~docv:"K1,K2,..." ~doc)

let groups_arg =
  let doc =
    "Hierarchical synthesis over process groups: partition the fabric by \
     hierarchy dimension $(docv) (or let 'auto' pick the bottleneck \
     dimension), synthesize intra-group and inter-group phases on the \
     sub-fabrics — isomorphic groups cost one synthesis — and compose one \
     full-fabric schedule."
  in
  Arg.(value & opt (some string) None & info [ "groups" ] ~docv:"DIM|auto" ~doc)

(* Derive the partition a [--groups] argument names, as a [result]. *)
let parse_groups topo gstr =
  Result.map_error
    (fun e -> "--groups: " ^ e)
    (Result.bind (Plan.grouping_of_string gstr) (Plan.decompose topo))

let sketch_arg =
  let doc =
    "Communication sketch file (JSON rules: forbid/prefer/pin/buddy) \
     constraining the synthesis; see the README's sketch section."
  in
  Arg.(value & opt (some string) None & info [ "sketch" ] ~docv:"FILE" ~doc)

(* [--groups], refused next to a [--sketch]: the group planner takes no
   sketch. Evaluated before the request, so the conflict is the error. *)
let groups_term =
  let check groups sketch =
    match (groups, sketch) with
    | Some _, Some _ -> fail "--sketch does not compose with --groups"
    | _ -> `Ok groups
  in
  Term.(ret (const check $ groups_arg $ sketch_arg))

(* A collective command's inputs as the [Protocol.request] [serve] would
   receive, resolved by the same validator ([Service.resolve]): both front
   ends accept and reject the same inputs with the same error texts. A
   command without a pattern, chunks or sketch flag passes a constant. *)
let request_term ?(op = Protocol.Synthesize) ?(pattern = pattern_arg)
    ?(chunks = Term.const 1) ?(sketch = Term.const None) () =
  let resolve topology alpha bw size pattern chunks seed sketch_path =
    let ( let* ) = Result.bind in
    let resolved =
      let* size = Parse.parse_size size in
      let* sketch =
        match sketch_path with
        | None -> Ok None
        | Some path -> (
          match Sketch.of_file path with
          | Ok sk -> Ok (Some sk)
          | Error e -> Error (Printf.sprintf "--sketch %s: %s" path e))
      in
      let req =
        {
          Protocol.id = Json.Null;
          op;
          topology = Some topology;
          pattern;
          size;
          chunks;
          seed = Some seed;
          deadline_ms = None;
          fail_links = [];
          candidates = None;
          sketch;
          format = `Json;
          prefix = None;
        }
      in
      Service.resolve ~alpha:(alpha *. 1e-6) ~bw:(Units.gbps bw)
        Service.default_config req
      |> Result.map (fun r -> (req, r))
    in
    match resolved with Ok v -> `Ok v | Error e -> fail "%s" e
  in
  Term.(
    ret
      (const resolve $ topology_arg $ alpha_arg $ bw_arg $ size_arg $ pattern
     $ chunks $ seed_arg $ sketch))

(* Run a command body, reporting the synthesizer's typed failures and a file
   the system cannot open ("<path>: <reason>") as the command's error
   instead of an uncaught exception. *)
let reporting_failures f =
  try f () with
  | Sys_error msg -> fail "%s" msg
  | Synth.Stuck msg -> fail "synthesis stuck: %s" msg
  | Synth.Unsupported msg -> fail "unsupported: %s" msg
  | Sketch.Infeasible off ->
    fail "sketch infeasible: %s" (Sketch.offender_to_string off)

(* Write [text] as is to [dest]: '-' is stdout; a file is announced on
   stdout as "<what> written to FILE" when [what] is given. *)
let write_out ?what dest text =
  match dest with
  | "-" -> print_string text
  | file ->
    Out_channel.with_open_text file (fun oc -> output_string oc text);
    Option.iter (fun what -> Format.printf "%s written to %s@." what file) what

(* --- synthesize ----------------------------------------------------------- *)

let synthesize_cmd =
  let render_ten =
    Arg.(value & flag & info [ "ten" ] ~doc:"Render the synthesized TEN grid (homogeneous topologies).")
  in
  let list_events =
    Arg.(value & flag & info [ "events" ] ~doc:"List every link-chunk match of the schedule.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the synthesized schedule as JSON to $(docv) ('-' for stdout).")
  in
  let svg_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg" ] ~docv:"FILE"
          ~doc:"Write a link-time Gantt chart of the schedule as SVG to $(docv).")
  in
  let program_of =
    Arg.(
      value
      & opt (some int) None
      & info [ "program" ] ~docv:"NPU"
          ~doc:"Print the lowered per-NPU send/recv program of $(docv).")
  in
  let run groups ((req : Protocol.request), (r : Service.resolved)) trials
      domains ten events json svg program =
    reporting_failures @@ fun () ->
    let topo = r.healthy and spec = r.spec and seed = r.seed in
    let size = req.size in
    let synthesized =
      match groups with
      | Some gstr ->
        Result.map
          (fun gs ->
            let plan = Plan.synthesize ~seed ~trials ~domains topo spec ~groups:gs in
            (plan.Plan.result, Some plan))
          (parse_groups topo gstr)
      | None ->
        let sketch = Option.map snd r.sketch in
        Ok (Tacos.Router.dispatch ~seed ~trials ~domains ?sketch topo spec, None)
    in
    match synthesized with
    | Error e -> fail "%s" e
    | Ok (result, plan) ->
      Format.printf "topology:        %a@." Topology.pp topo;
      Format.printf "collective:      %a@." Spec.pp spec;
      (match plan with
      | Some p ->
        Format.printf "groups:          %d x %d NPUs, %d syntheses, %d dedup hits@."
          p.Plan.groups p.Plan.group_size p.Plan.syntheses p.Plan.dedup_hits;
        List.iter
          (fun (i : Plan.phase_info) ->
            Format.printf "  %-21s %3d parts, %d synthesized, makespan %s, wall %s@."
              i.Plan.phase i.Plan.parts i.Plan.syntheses
              (Units.time_pp i.Plan.makespan)
              (Units.time_pp i.Plan.wall_seconds))
          p.Plan.phase_infos
      | None -> ());
      Format.printf "collective time: %s@." (Units.time_pp result.Synth.collective_time);
      Format.printf "bandwidth:       %s@."
        (Units.bandwidth_pp (size /. result.Synth.collective_time));
      Format.printf "sends:           %d over %d rounds (synthesized in %s)@."
        (Schedule.num_sends result.Synth.schedule)
        result.Synth.stats.Synth.rounds
        (Units.time_pp result.Synth.stats.Synth.wall_seconds);
      (match Synth.verify topo result with
      | Ok () -> Format.printf "validation:      ok (congestion-free, postconditions met)@."
      | Error e -> Format.printf "validation:      FAILED: %s@." e);
      (match r.sketch with
      | Some (sk, _) -> (
        match Sketch.compliant topo spec sk result.Synth.schedule with
        | Ok () ->
          Format.printf "sketch:          ok (%d rules, schedule compliant)@."
            (List.length sk.Sketch.rules)
        | Error e -> Format.printf "sketch:          VIOLATED: %s@." e)
      | None -> ());
      (match Ideal.all_reduce_time topo ~size with
      | ideal when r.pattern = Pattern.All_reduce ->
        Format.printf "vs ideal:        %.2f%%@."
          (100. *. ideal /. result.Synth.collective_time)
      | _ | (exception _) -> ());
      if events then Schedule.pp_events Format.std_formatter result.Synth.schedule;
      Option.iter
        (fun dest -> write_out ~what:"SVG" dest (Svg.render topo result.Synth.schedule))
        svg;
      (match program with
      | Some npu ->
        let programs =
          Lowering.npu_programs ~npus:(Topology.num_npus topo) result.Synth.schedule
        in
        if npu < 0 || npu >= Array.length programs then
          Format.printf "NPU %d out of range@." npu
        else begin
          Format.printf "program of NPU %d:@." npu;
          Lowering.pp_program Format.std_formatter programs.(npu)
        end
      | None -> ());
      Option.iter
        (fun dest ->
          write_out ~what:"schedule" dest
            (Schedule.to_json ~spec result.Synth.schedule))
        json;
      if ten then begin
        let chunk_size = Spec.chunk_size spec in
        let cost =
          match Topology.edges topo with
          | e :: _ -> Link.cost e.Topology.link chunk_size
          | [] -> 0.
        in
        match Tacos_ten.Ten.of_schedule topo ~span_cost:cost result.Synth.schedule with
        | ten -> print_string (Tacos_ten.Ten.render ten)
        | exception Invalid_argument _ ->
          print_endline "(TEN grid unavailable: heterogeneous topology or composite schedule)"
      end;
      `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ groups_term
        $ request_term ~chunks:chunks_arg ~sketch:sketch_arg ()
        $ trials_arg $ domains_arg $ render_ten $ list_events $ json_out $ svg_out
        $ program_of))
  in
  Cmd.v (Cmd.info "synthesize" ~doc:"Synthesize a topology-aware collective algorithm") term

(* --- compare --------------------------------------------------------------- *)

let compare_cmd =
  let run ((req : Protocol.request), (r : Service.resolved)) trials =
    reporting_failures @@ fun () ->
    let topo = r.healthy and size = req.size in
    let n = Topology.num_npus topo in
    (* The baselines run at one chunk per NPU, TACOS at the requested
       granularity. *)
    let baseline_spec = Spec.make ~buffer_size:size ~pattern:r.pattern ~npus:n () in
    let power_of_two = n land (n - 1) = 0 in
    let baselines =
      [ ("Ring", Algo.ring); ("Direct", Algo.Direct) ]
      @ (if power_of_two then [ ("RHD", Algo.Rhd); ("DBT", Algo.Dbt) ] else [])
      @ [ ("TACCL-like", Algo.Taccl_like) ]
    in
    let row name t = [ name; Units.time_pp t; Units.bandwidth_pp (size /. t) ] in
    let baseline_rows =
      List.map
        (fun (name, algo) ->
          match Algo.collective_time algo topo baseline_spec with
          | t -> row name t
          | exception _ -> [ name; "n/a"; "n/a" ])
        baselines
    in
    let result = Synth.synthesize ~seed:r.seed ~trials topo r.spec in
    let tacos = Tacos.Tuner.simulated_time topo result in
    let ideal = Ideal.all_reduce_time topo ~size in
    Format.printf "All-Reduce of %s on %a@." (Units.bytes_pp size) Topology.pp topo;
    Table.print ~header:[ "Algorithm"; "Time"; "Bandwidth" ]
      (baseline_rows @ [ row "TACOS" tacos; row "Ideal" ideal ]);
    `Ok ()
  in
  let term =
    Term.(
      ret
        (const run
        $ request_term ~pattern:(const "all-reduce") ~chunks:chunks_arg ()
        $ trials_arg))
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare TACOS against the baseline All-Reduce algorithms")
    term

(* --- tune ------------------------------------------------------------------ *)

let tune_cmd =
  let run groups ((req : Protocol.request), (r : Service.resolved)) domains
      candidates =
    reporting_failures @@ fun () ->
    let topo = r.healthy and size = req.size in
    (* With --groups, every candidate granularity is synthesized
       hierarchically through the group planner. *)
    let backend =
      match (groups, req.sketch) with
      | None, None -> Ok None
      | None, Some sk ->
        Ok
          (Some
             (fun ~seed topo spec ->
               (* Per candidate: pin chunk ids are validated against each
                  candidate's own chunk space. *)
               let c = Sketch.compile topo spec sk in
               Synth.synthesize ~seed ~domains ~sketch:c topo spec))
      | Some gstr, _ ->
        Result.map
          (fun gs ->
            Some
              (fun ~seed topo spec ->
                (Plan.synthesize ~seed ~domains topo spec ~groups:gs).Plan.result))
          (parse_groups topo gstr)
    in
    match backend with
    | Error e -> fail "%s" e
    | Ok synthesize ->
      let choices =
        Tacos.Tuner.sweep ~seed:r.seed ~domains ~candidates ?synthesize topo
          ~pattern:r.pattern ~size
      in
      let best = Tacos.Tuner.best choices in
      Format.printf "%s of %s on %a@." (Pattern.name r.pattern) (Units.bytes_pp size)
        Topology.pp topo;
      Table.print ~header:[ "chunks/NPU"; "simulated time"; "bandwidth" ]
        (List.map
           (fun (c : Tacos.Tuner.choice) ->
             [
               string_of_int c.Tacos.Tuner.chunks_per_npu;
               Units.time_pp c.Tacos.Tuner.simulated_time;
               Units.bandwidth_pp (size /. c.Tacos.Tuner.simulated_time);
             ])
           choices);
      Format.printf "best: %d chunks/NPU (%s)@." best.Tacos.Tuner.chunks_per_npu
        (Units.time_pp best.Tacos.Tuner.simulated_time);
      `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ groups_term
        $ request_term ~op:Protocol.Tune ~sketch:sketch_arg ()
        $ domains_arg
        $ candidates_arg ~doc:"Chunks-per-NPU granularities to try."))
  in
  Cmd.v
    (Cmd.info "tune" ~doc:"Sweep chunk granularities and report the fastest")
    term

(* --- pareto ---------------------------------------------------------------- *)

let pareto_cmd =
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the full outcome (every point, the frontier, and the \
             dominated pairs) as one JSON document on stdout.")
  in
  let run ((req : Protocol.request), (r : Service.resolved)) trials domains
      candidates json =
    reporting_failures @@ fun () ->
    let outcome =
      Strategy.sweep ~seed:r.seed ~trials ~domains ~candidates ?sketch:req.sketch
        r.healthy ~pattern:r.pattern ~size:req.size
    in
    if json then print_endline (Strategy.to_json outcome)
    else begin
      Format.printf "%s of %s on %a — latency/bandwidth tradeoffs@."
        (Pattern.name r.pattern) (Units.bytes_pp req.size) Topology.pp r.healthy;
      let on_frontier p = List.memq p outcome.Strategy.frontier in
      Table.print
        ~header:
          [
            "chunks/NPU"; "steps"; "sends"; "collective"; "simulated"; "synth wall";
            "frontier";
          ]
        (List.map
           (fun (p : Strategy.point) ->
             [
               string_of_int p.Strategy.chunks_per_npu;
               string_of_int p.Strategy.steps;
               string_of_int p.Strategy.sends;
               Units.time_pp p.Strategy.collective_time;
               Units.time_pp p.Strategy.simulated_time;
               Units.time_pp p.Strategy.synthesis_seconds;
               (if on_frontier p then "*" else "dominated");
             ])
           outcome.Strategy.points);
      Format.printf
        "frontier: %d of %d points non-dominated over (chunks, steps, simulated \
         time)@."
        (List.length outcome.Strategy.frontier)
        (List.length outcome.Strategy.points)
    end;
    `Ok ()
  in
  let term =
    Term.(
      ret
        (const run
        $ request_term ~op:Protocol.Tune ~sketch:sketch_arg ()
        $ trials_arg $ domains_arg
        $ candidates_arg ~doc:"Chunks-per-NPU granularities to sweep."
        $ json_flag))
  in
  Cmd.v
    (Cmd.info "pareto"
       ~doc:
         "Sweep chunk granularities (optionally under a communication sketch) \
          and report the latency/bandwidth Pareto frontier")
    term

(* --- profile ---------------------------------------------------------------- *)

let profile_cmd =
  let out_arg =
    Arg.(
      value & opt string "-"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the JSON profile to $(docv) ('-' for stdout).")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Include the raw structured trace in the output: the Obs event \
             stream and the full per-transfer lifecycle (schema documented \
             in Tacos_obs.Trace).")
  in
  let run ((req : Protocol.request), (r : Service.resolved)) trials out trace =
    reporting_failures @@ fun () ->
    let topo = r.healthy and spec = r.spec in
    (* Everything below runs with the obs registry on: synthesis populates
       the synth.*/router.* metrics, and replaying the schedule under the
       congestion-aware simulator populates the engine.* queueing
       metrics. *)
    Obs.enable ();
    Obs.reset ();
    if trace then begin
      Trace.enable ();
      Trace.reset ()
    end;
    let result = Tacos.Router.dispatch ~seed:r.seed ~trials topo spec in
    let simulated = Tacos.Tuner.simulated_time topo result in
    let snap = Obs.snapshot () in
    let memo_hits = Obs.value (Obs.counter "synth.memo_hits") in
    let scans = Obs.value (Obs.counter "synth.pick_scans") in
    let memo_hit_rate =
      if memo_hits + scans = 0 then 0.
      else float_of_int memo_hits /. float_of_int (memo_hits + scans)
    in
    let num f = Json.Number f in
    let doc =
      Json.Object
        ([
           ("topology", Json.String (Topology.name topo));
           ("npus", num (float_of_int (Topology.num_npus topo)));
           ("links", num (float_of_int (Topology.num_links topo)));
           ("pattern", Json.String (Pattern.name r.pattern));
           ("buffer_bytes", num req.size);
           ("chunks_per_npu", num (float_of_int spec.Spec.chunks_per_npu));
           ("seed", num (float_of_int r.seed));
           ("trials", num (float_of_int trials));
           ("collective_time_seconds", num result.Synth.collective_time);
           ("simulated_time_seconds", num simulated);
           ("synthesis_wall_seconds", num result.Synth.stats.Synth.wall_seconds);
           ("rounds", num (float_of_int result.Synth.stats.Synth.rounds));
           ("matches", num (float_of_int result.Synth.stats.Synth.matches));
           ("derived", Json.Object [ ("memo_hit_rate", num memo_hit_rate) ]);
           ("obs", snap);
         ]
        @
        if trace then
          [
            ("trace", Obs.trace_events ());
            ("lifecycle", Trace.to_json (Trace.dump ()));
          ]
        else [])
    in
    write_out ~what:"profile" out (Json.encode doc ^ "\n");
    `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ request_term ~chunks:chunks_arg () $ trials_arg $ out_arg
       $ trace_arg))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Synthesize with the observability registry enabled and emit a JSON \
          profile (counters, histograms, timers, queueing metrics)")
    term

(* --- faults ----------------------------------------------------------------- *)

module Engine = Tacos_sim.Engine
module Sim_program = Tacos_sim.Program

(* "--at 40%" resolves against the healthy schedule's simulated completion
   time; "--at 0.0012" is absolute seconds. *)
let parse_at s =
  let s = String.trim s in
  let pct = String.length s > 1 && s.[String.length s - 1] = '%' in
  let body = if pct then String.sub s 0 (String.length s - 1) else s in
  match float_of_string_opt body with
  | None -> Error (Printf.sprintf "bad fault time %S (seconds or N%%)" s)
  | Some v when v < 0. -> Error "fault time must be non-negative"
  | Some v -> Ok (if pct then `Fraction (v /. 100.) else `Seconds v)

(* An explicit per-epoch fault list: comma-separated kill-link=N, kill-npu=N,
   degrade=NxF tokens, as in "--at 40%:kill-link=3,degrade=7x2". *)
let parse_fault_spec s =
  let parse_token tok =
    let sub_after i = String.sub tok (i + 1) (String.length tok - i - 1) in
    match String.index_opt tok '=' with
    | Some i when String.sub tok 0 i = "kill-link" -> (
      match int_of_string_opt (sub_after i) with
      | Some n -> Ok (Fault.Kill_link n)
      | None -> Error (Printf.sprintf "bad link id in %S" tok))
    | Some i when String.sub tok 0 i = "kill-npu" -> (
      match int_of_string_opt (sub_after i) with
      | Some n -> Ok (Fault.Kill_npu n)
      | None -> Error (Printf.sprintf "bad NPU id in %S" tok))
    | Some i when String.sub tok 0 i = "degrade" -> (
      let v = sub_after i in
      match String.index_opt v 'x' with
      | Some j -> (
        match
          ( int_of_string_opt (String.sub v 0 j),
            float_of_string_opt (String.sub v (j + 1) (String.length v - j - 1)) )
        with
        | Some link, Some factor -> Ok (Fault.Degrade_link { link; factor })
        | _ -> Error (Printf.sprintf "bad degrade spec %S (want degrade=NxF)" tok))
      | None -> Error (Printf.sprintf "bad degrade spec %S (want degrade=NxF)" tok))
    | _ ->
      Error
        (Printf.sprintf
           "bad fault spec %S (kill-link=N, kill-npu=N or degrade=NxF)" tok)
  in
  List.fold_left
    (fun acc tok ->
      match (acc, parse_token (String.trim tok)) with
      | Error _, _ -> acc
      | _, Error e -> Error e
      | Ok fs, Ok f -> Ok (fs @ [ f ]))
    (Ok [])
    (String.split_on_char ',' s)

(* One "--at T[:SPEC]" event: the time, plus its own fault list when the
   colon form is used (required when giving a multi-epoch timeline). *)
let parse_event s =
  match String.index_opt s ':' with
  | None -> Result.map (fun at -> (at, None)) (parse_at s)
  | Some i -> (
    match parse_at (String.sub s 0 i) with
    | Error e -> Error e
    | Ok at ->
      Result.map
        (fun faults -> (at, Some faults))
        (parse_fault_spec (String.sub s (i + 1) (String.length s - i - 1))))

(* A repair's validation verdict, as the suffix of its report line. *)
let invalid_suffix = function
  | Ok () -> ""
  | Error e -> Printf.sprintf " [INVALID: %s]" e

(* The mid-flight three-way comparison: replay-through-the-fault vs suffix
   repair vs full re-synthesis, all timed from the same fault instant. *)
let midflight_run ~trials ~domains ~budget ~report (r : Service.resolved)
    healthy ~healthy_time faults at =
  let topo = r.healthy and seed = r.seed in
  Format.printf "healthy:      %s simulated; fault lands at %s@."
    (Units.time_pp healthy_time) (Units.time_pp at);
  let timeline = Fault.timeline ~at topo faults in
  let program =
    Sim_program.of_schedule ~chunk_size:(Spec.chunk_size r.spec)
      healthy.Synth.schedule
  in
  let replay =
    match Engine.run ~faults:timeline topo program with
    | sim ->
      if sim.Engine.stranded = [] then Ok sim.Engine.finish_time
      else Error (Printf.sprintf "%d transfers stranded" (List.length sim.Engine.stranded))
    | exception (Engine.Simulation_error _ as e) -> Error (Printexc.to_string e)
  in
  (match replay with
  | Ok t ->
    Format.printf "replay:       %s (reroute in the engine, no re-planning)@."
      (Units.time_pp t)
  | Error why -> Format.printf "replay:       FAILS — %s@." why);
  let repair =
    Resilience.repair ~seed ~trials ~domains ?budget_ms:budget ~at topo faults
      healthy
  in
  (match repair with
  | Ok p ->
    Format.printf "repair:       %s via %s (synthesized in %s)%s@."
      (Units.time_pp p.Resilience.completion_time)
      (Resilience.strategy_name p.Resilience.strategy)
      (Units.time_pp p.Resilience.synth_wall_seconds)
      (invalid_suffix p.Resilience.verified)
  | Error f -> Format.printf "repair:       NONE — %a@." Resilience.pp_failure f);
  let full =
    Resilience.synthesize ~seed ~trials ~domains ?budget_ms:budget ~faults topo
      r.spec
  in
  (match full with
  | Ok o ->
    Format.printf "resynthesis:  %s (full, synthesized in %s)@."
      (Units.time_pp (at +. o.Resilience.simulated_time))
      (Units.time_pp o.Resilience.wall_seconds)
  | Error f -> Format.printf "resynthesis:  NONE — %a@." Resilience.pp_failure f);
  (match (repair, full) with
  | Ok p, Ok o when p.Resilience.synth_wall_seconds > 0. ->
    Format.printf "speedup:      %.1fx less synthesis wall-clock from repairing@."
      (o.Resilience.wall_seconds /. p.Resilience.synth_wall_seconds)
  | _ -> ());
  report
    [
      ("at_seconds", Json.Number at);
      ("healthy_seconds", Json.Number healthy_time);
      ("faults", Json.Array (List.map Fault.to_json faults));
      ( "replay",
        match replay with
        | Ok t -> Json.Object [ ("completion_seconds", Json.Number t) ]
        | Error why -> Json.Object [ ("stranded", Json.String why) ] );
      ( "repair",
        match repair with
        | Ok p ->
          Json.Object
            [
              ("strategy", Json.String (Resilience.strategy_name p.Resilience.strategy));
              ("completion_seconds", Json.Number p.Resilience.completion_time);
              ("synth_wall_seconds", Json.Number p.Resilience.synth_wall_seconds);
              ("verified", Json.Bool (Result.is_ok p.Resilience.verified));
            ]
        | Error f -> Resilience.failure_to_json f );
      ( "full_resynthesis",
        match full with
        | Ok o ->
          Json.Object
            [
              ("completion_seconds", Json.Number (at +. o.Resilience.simulated_time));
              ("synth_wall_seconds", Json.Number o.Resilience.wall_seconds);
            ]
        | Error f -> Resilience.failure_to_json f );
    ]

(* A multi-epoch fault timeline: each "--at T:SPEC" lands its own fault list
   mid-flight and the composite is incrementally re-repaired at every epoch
   (Resilience.repair_timeline). *)
let multiflight_run ~trials ~domains ~budget ~report (r : Service.resolved)
    healthy ~healthy_time events =
  Format.printf "healthy:      %s simulated; %d fault epochs@."
    (Units.time_pp healthy_time) (List.length events);
  List.iter
    (fun (at, faults) ->
      Format.printf "epoch:        %s — %s@." (Units.time_pp at)
        (String.concat ", " (List.map Fault.to_string faults)))
    events;
  match
    Resilience.repair_timeline ~seed:r.seed ~trials ~domains ?budget_ms:budget
      ~events r.healthy healthy
  with
  | exception Invalid_argument msg -> fail "%s" msg
  | Error f ->
    fail "timeline repair failed: %s"
      (Format.asprintf "%a" Resilience.pp_failure f)
  | Ok tr ->
    List.iter
      (fun (e : Resilience.epoch) ->
        let p = e.Resilience.repaired in
        Format.printf "repair @@ %s: %s → completes %s (synthesized in %s)%s@."
          (Units.time_pp e.Resilience.at)
          (Resilience.strategy_name p.Resilience.strategy)
          (Units.time_pp p.Resilience.completion_time)
          (Units.time_pp p.Resilience.synth_wall_seconds)
          (invalid_suffix p.Resilience.verified))
      tr.Resilience.epochs;
    Format.printf "final:        %s, %d sends, %s@."
      (Units.time_pp tr.Resilience.completion_time)
      (Schedule.num_sends tr.Resilience.schedule)
      (match tr.Resilience.verified with
      | Ok () -> "composite verified end to end"
      | Error e -> "INVALID: " ^ e);
    report
      [
        ("healthy_seconds", Json.Number healthy_time);
        ( "epochs",
          Json.Array
            (List.map
               (fun (e : Resilience.epoch) ->
                 let p = e.Resilience.repaired in
                 Json.Object
                   [
                     ("at_seconds", Json.Number e.Resilience.at);
                     ("faults", Json.Array (List.map Fault.to_json e.Resilience.faults));
                     ("strategy", Json.String (Resilience.strategy_name p.Resilience.strategy));
                     ("completion_seconds", Json.Number p.Resilience.completion_time);
                     ("synth_wall_seconds", Json.Number p.Resilience.synth_wall_seconds);
                     ("verified", Json.Bool (Result.is_ok p.Resilience.verified));
                   ])
               tr.Resilience.epochs) );
        ("completion_seconds", Json.Number tr.Resilience.completion_time);
        ("sends", Json.Number (float_of_int (Schedule.num_sends tr.Resilience.schedule)));
        ("verified", Json.Bool (Result.is_ok tr.Resilience.verified));
      ]

(* Sampled faults synthesized around on the degraded fabric through the
   fallback ladder, then — when faults were injected — the degradation
   analysis of the healthy schedule. *)
let degraded_run ~trials ~budget ~report (r : Service.resolved) faults =
  let topo = r.healthy and spec = r.spec and seed = r.seed in
  let degraded = Fault.apply topo faults in
  Format.printf "degraded:     %a@." Topology.pp degraded;
  let connectivity = Fault.connectivity degraded in
  Format.printf "connectivity: %a@." Fault.pp_connectivity connectivity;
  let outcome =
    Resilience.synthesize ~seed ~trials ?budget_ms:budget ~faults topo spec
  in
  (match outcome with
  | Ok o ->
    (match o.Resilience.plan with
    | Resilience.Synthesized result ->
      Format.printf "plan:         synthesized (%d sends, makespan %s)@."
        (Schedule.num_sends result.Synth.schedule)
        (Units.time_pp result.Synth.collective_time);
      (match Synth.verify degraded result with
      | Ok () ->
        Format.printf "validation:   ok (congestion-free, postconditions met)@."
      | Error e -> Format.printf "validation:   FAILED: %s@." e)
    | Resilience.Baseline { algo; _ } ->
      Format.printf "plan:         fallback baseline %s@." (Algo.name algo));
    Format.printf "simulated:    %s (%s)@."
      (Units.time_pp o.Resilience.simulated_time)
      (Units.bandwidth_pp (spec.Spec.buffer_size /. o.Resilience.simulated_time));
    if o.Resilience.retries > 0 then
      Format.printf "retries:      %d@." o.Resilience.retries;
    Format.printf "ladder:       %s@." (String.concat " -> " o.Resilience.rungs)
  | Error f -> Format.printf "plan:         NONE — %a@." Resilience.pp_failure f);
  (* Healthy-vs-degraded: what re-synthesis buys over replaying the healthy
     schedule (only meaningful with faults and a synthesizer-supported
     pattern). *)
  let analysis =
    if faults = [] then None
    else
      match Synth.synthesize ~seed ~trials topo spec with
      | healthy -> Some (Resilience.analyze ~seed ~trials topo faults healthy)
      | exception (Synth.Stuck _ | Synth.Unsupported _) -> None
  in
  (match analysis with
  | None -> ()
  | Some a ->
    Format.printf "healthy plan: %s on the degraded fabric@."
      (Resilience.health_to_string a.Resilience.health);
    (match (a.Resilience.replay_time, a.Resilience.resynth_time) with
    | Some replay, Some resynth ->
      Format.printf "replay:       %s; re-synthesis: %s@." (Units.time_pp replay)
        (Units.time_pp resynth)
    | _ -> ());
    match a.Resilience.advantage with
    | Some adv -> Format.printf "advantage:    %.2fx from re-synthesis@." adv
    | None -> ());
  Format.printf "fallback counters:@.";
  List.iter
    (fun name -> Format.printf "  %-32s %d@." name (Obs.value (Obs.counter name)))
    [
      "resilience.synth_ok";
      "resilience.synth_retries";
      "resilience.fallback_baseline";
      "resilience.failures";
      "resilience.disconnected_inputs";
    ];
  report
    [
      ("faults", Json.Array (List.map Fault.to_json faults));
      ( "connectivity",
        Json.String (Format.asprintf "%a" Fault.pp_connectivity connectivity) );
      ( "outcome",
        match outcome with
        | Ok o ->
          Json.Object
            [
              ( "plan",
                Json.String
                  (match o.Resilience.plan with
                  | Resilience.Synthesized _ -> "synthesized"
                  | Resilience.Baseline { algo; _ } -> "baseline " ^ Algo.name algo) );
              ("simulated_seconds", Json.Number o.Resilience.simulated_time);
              ("retries", Json.Number (float_of_int o.Resilience.retries));
              ("ladder", Json.Array (List.map (fun s -> Json.String s) o.Resilience.rungs));
            ]
        | Error f -> Resilience.failure_to_json f );
      ("obs", Obs.snapshot ());
    ]

let faults_cmd =
  let fail_links_arg =
    Arg.(
      value & opt int 0
      & info [ "fail-links" ] ~docv:"K" ~doc:"Kill $(docv) random links.")
  in
  let fail_npus_arg =
    Arg.(
      value & opt int 0
      & info [ "fail-npus" ] ~docv:"K"
          ~doc:"Kill $(docv) random NPUs (all their incident links fail).")
  in
  let degrade_arg =
    Arg.(
      value & opt int 0
      & info [ "degrade" ] ~docv:"K"
          ~doc:"Degrade $(docv) random links (bandwidth divided, latency \
                multiplied by the factor).")
  in
  let degrade_factor_arg =
    Arg.(
      value & opt float 4.
      & info [ "degrade-factor" ] ~docv:"F"
          ~doc:"Degradation severity for $(b,--degrade) (default 4x).")
  in
  let budget_arg =
    Arg.(
      value & opt (some float) None
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:"Wall-clock budget for the reseeded-retry rung of the \
                fallback ladder.")
  in
  let json_out =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the structured fault report as JSON to $(docv) ('-' \
                for stdout).")
  in
  let at_arg =
    Arg.(
      value & opt_all string []
      & info [ "at" ] ~docv:"T[:SPEC]"
          ~doc:"Land faults mid-flight at $(docv) (seconds, or N% of the \
                healthy schedule's simulated time). Given once without a \
                spec, the randomly sampled faults land there and \
                replay-through-the-fault, incremental repair and full \
                re-synthesis are compared. Repeat with explicit per-epoch \
                fault specs — e.g. --at 30%:kill-link=3 --at \
                60%:kill-npu=2,degrade=7x4 — to repair a whole fault \
                timeline incrementally, epoch by epoch.")
  in
  let run (_, (r : Service.resolved)) trials domains fail_links fail_npus degrade
      degrade_factor budget at_strs json =
    reporting_failures @@ fun () ->
    let topo = r.healthy and spec = r.spec in
    (* Deterministic fault set from one seed: kills, NPU kills, then
       degradations, all drawn from the same stream. *)
    let rng = Tacos_util.Rng.create r.seed in
    let events =
      List.fold_left
        (fun acc s ->
          match (acc, parse_event s) with
          | Error _, _ -> acc
          | _, Error e -> Error e
          | Ok evs, Ok ev -> Ok (evs @ [ ev ]))
        (Ok []) at_strs
    in
    match
      let kills = Fault.random_link_kills rng topo fail_links in
      let npus = Fault.random_npu_kills rng topo fail_npus in
      let slow = Fault.random_degradations rng ~factor:degrade_factor topo degrade in
      kills @ npus @ slow
    with
    | exception Invalid_argument msg -> fail "%s" msg
    | faults -> (
      let mode =
        match events with
        | Error e -> Error e
        | Ok [] -> Ok `Degraded
        (* Single-event form: the sampled faults land at T. *)
        | Ok [ (at, None) ] -> Ok (`Midflight at)
        | Ok evs when List.exists (fun (_, fs) -> fs = None) evs ->
          Error
            "a fault timeline needs each --at to carry its faults: --at \
             T:kill-link=N,..."
        | Ok _ when faults <> [] ->
          Error
            "--fail-links/--fail-npus/--degrade cannot combine with an \
             explicit --at T:SPEC timeline"
        | Ok evs -> Ok (`Timeline (List.map (fun (at, fs) -> (at, Option.get fs)) evs))
      in
      match mode with
      | Error e -> fail "%s" e
      | Ok mode -> (
        (* The fields every JSON report starts with. *)
        let report fields =
          let head =
            [
              ("topology", Json.String (Topology.name topo));
              ("pattern", Json.String (Pattern.name r.pattern));
              ("buffer_bytes", Json.Number spec.Spec.buffer_size);
              ("seed", Json.Number (float_of_int r.seed));
            ]
          in
          Option.iter
            (fun dest ->
              write_out ~what:"report" dest (Json.encode (Json.Object (head @ fields)) ^ "\n"))
            json;
          `Ok ()
        in
        if mode = `Degraded then begin
          Obs.enable ();
          Obs.reset ()
        end;
        Format.printf "topology:     %a@." Topology.pp topo;
        Format.printf "collective:   %a@." Spec.pp spec;
        (match mode with
        | `Timeline _ -> ()
        | _ when faults = [] -> Format.printf "faults:       none@."
        | _ -> List.iter (fun f -> Format.printf "fault:        %a@." Fault.pp f) faults);
        (* The --at modes land faults on the healthy schedule; a fraction
           resolves against its simulated completion time. *)
        let healthy () =
          let healthy = Synth.synthesize ~seed:r.seed ~trials topo spec in
          let healthy_time = Tacos.Tuner.simulated_time topo healthy in
          let seconds = function `Seconds v -> v | `Fraction f -> f *. healthy_time in
          (healthy, healthy_time, seconds)
        in
        match mode with
        | `Degraded -> degraded_run ~trials ~budget ~report r faults
        | `Midflight at ->
          let healthy, healthy_time, seconds = healthy () in
          midflight_run ~trials ~domains ~budget ~report r healthy ~healthy_time
            faults (seconds at)
        | `Timeline events ->
          let healthy, healthy_time, seconds = healthy () in
          multiflight_run ~trials ~domains ~budget ~report r healthy ~healthy_time
            (List.map (fun (at, fs) -> (seconds at, fs)) events)))
  in
  let term =
    Term.(
      ret
        (const run $ request_term ~chunks:chunks_arg () $ trials_arg $ domains_arg
       $ fail_links_arg $ fail_npus_arg $ degrade_arg $ degrade_factor_arg
       $ budget_arg $ at_arg $ json_out))
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Inject deterministic link/NPU faults and synthesize on the broken \
          fabric via the graceful-degradation fallback ladder (never an \
          uncaught exception)")
    term

(* --- trace ------------------------------------------------------------------- *)

let trace_cmd =
  let out_arg =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the Chrome trace-event JSON to $(docv) ('-' for stdout).")
  in
  let top_arg =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K"
          ~doc:"Show the $(docv) links carrying the most critical-path time.")
  in
  let validate_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "validate" ] ~docv:"FILE"
          ~doc:
            "Validate an existing Chrome trace-event JSON file (structure, \
             monotone timestamps, balanced async pairs) and exit; nothing is \
             synthesized.")
  in
  (* 40-bin ASCII Gantt of one link's busy intervals over [0, span]. *)
  let gantt span intervals =
    let bins = 40 in
    if span <= 0. then String.make bins ' '
    else begin
      let busy =
        Tacos_util.Timeline.binned_busy ~bins ~span (fun f ->
            List.iter (fun (s, e) -> f s e) intervals)
      in
      let w = span /. float_of_int bins in
      String.init bins (fun i ->
          let frac = busy.(i) /. w in
          if frac >= 0.75 then '#'
          else if frac >= 0.25 then '+'
          else if frac > 0. then '.'
          else ' ')
    end
  in
  let run (_, (r : Service.resolved)) trials out top validate_file =
    match validate_file with
    | Some file -> (
      reporting_failures @@ fun () ->
      let text = In_channel.with_open_bin file In_channel.input_all in
      match Json.parse text with
      | Error e -> fail "%s: not JSON: %s" file e
      | Ok doc -> (
        match Chrome.validate doc with
        | Ok () ->
          Format.printf "%s: valid Chrome trace-event JSON@." file;
          `Ok ()
        | Error e -> fail "%s: INVALID: %s" file e))
    | None ->
      reporting_failures @@ fun () ->
      let topo = r.healthy and spec = r.spec in
      Trace.enable ();
      Trace.reset ();
      let result = Tacos.Router.dispatch ~seed:r.seed ~trials topo spec in
      (* Transfer tags carry the collective phase ("phase:chunkN")
         so the analyzer can attribute the makespan per phase. *)
      let tag_of =
        match result.Synth.phases with
        | Some (rs, _) ->
          fun (s : Schedule.send) ->
            Printf.sprintf "%s:chunk%d"
              (Schedule.phase_of_send ~reduce_scatter:rs s)
              s.chunk
        | None ->
          let name = Pattern.name r.pattern in
          fun (s : Schedule.send) ->
            Printf.sprintf "%s:chunk%d" name s.chunk
      in
      let program =
        Sim_program.of_schedule ~tag_of ~chunk_size:(Spec.chunk_size spec)
          result.Synth.schedule
      in
      let sim = Engine.run topo program in
      let d = Trace.dump () in
      let transfers = Sim_program.transfers program in
      let phase_of tid =
        let tag = transfers.(tid).Sim_program.tag in
        match String.index_opt tag ':' with
        | Some i -> String.sub tag 0 i
        | None -> tag
      in
      let edge_ends = Array.make (Topology.num_links topo) (0, 0) in
      List.iter
        (fun (e : Topology.edge) -> edge_ends.(e.id) <- (e.src, e.dst))
        (Topology.edges topo);
      let link_label l =
        let src, dst = edge_ends.(l) in
        Printf.sprintf "link %d (%d->%d)" l src dst
      in
      let transfer_label tid =
        Printf.sprintf "t%d %s" tid transfers.(tid).Sim_program.tag
      in
      let doc =
        Chrome.export ~link_label ~transfer_label
          ~num_links:(Topology.num_links topo) d
      in
      match Chrome.validate doc with
      | Error e -> fail "internal: emitted trace fails validation: %s" e
      | Ok () ->
        write_out out (Json.encode doc ^ "\n");
        Format.printf "topology:        %a@." Topology.pp topo;
        Format.printf "collective:      %a@." Spec.pp spec;
        Format.printf "simulated time:  %s@."
          (Units.time_pp sim.Engine.finish_time);
        Format.printf "trace:           %d events, %d spans%s@."
          (List.length d.Trace.events)
          (List.length d.Trace.spans)
          (if d.Trace.dropped > 0 then
             Printf.sprintf " (%d dropped at the buffer cap)" d.Trace.dropped
           else "");
        (match Critpath.analyze ~phase_of d.Trace.events with
        | None ->
          Format.printf "critical path:   (no completed transfers)@."
        | Some cp ->
          let attributed = Critpath.attributed_total cp in
          Format.printf
            "critical path:   ends at t%d; %s attributed of %s makespan@."
            cp.Critpath.critical_transfer (Units.time_pp attributed)
            (Units.time_pp cp.Critpath.makespan);
          Table.print
            ~header:[ "where the time went"; "seconds"; "share" ]
            (List.map
               (fun (c, v) ->
                 [
                   Critpath.category_name c;
                   Units.time_pp v;
                   Table.cell_percent
                     (if cp.Critpath.makespan > 0. then
                        v /. cp.Critpath.makespan
                      else 0.);
                 ])
               cp.Critpath.totals);
          if cp.Critpath.per_phase <> [] then begin
            Format.printf "per collective phase:@.";
            Table.print
              ~header:[ "phase"; "seconds"; "share" ]
              (List.map
                 (fun (phase, cats) ->
                   let v =
                     List.fold_left (fun acc (_, w) -> acc +. w) 0. cats
                   in
                   [
                     phase;
                     Units.time_pp v;
                     Table.cell_percent
                       (if cp.Critpath.makespan > 0. then
                          v /. cp.Critpath.makespan
                        else 0.);
                   ])
                 cp.Critpath.per_phase)
          end;
          let top_links =
            List.filteri (fun i _ -> i < top) cp.Critpath.per_link
          in
          if top_links <> [] then begin
            Format.printf
              "top critical links (busy over [0, %s], # >=75%% busy):@."
              (Units.time_pp sim.Engine.finish_time);
            List.iter
              (fun (l, cats) ->
                let v =
                  List.fold_left (fun acc (_, w) -> acc +. w) 0. cats
                in
                Format.printf "  %-18s |%s| %s on path@." (link_label l)
                  (gantt sim.Engine.finish_time
                     sim.Engine.link_intervals.(l))
                  (Units.time_pp v))
              top_links
          end);
        (match out with
        | "-" -> ()
        | file ->
          Format.printf
            "trace written to %s (load in Perfetto / chrome://tracing)@."
              file);
        `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ request_term ~chunks:chunks_arg () $ trials_arg $ out_arg
       $ top_arg $ validate_arg))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record the full per-transfer execution trace of a synthesized \
          schedule, write it as Chrome trace-event JSON (Perfetto), and print \
          the critical-path attribution of the makespan")
    term


(* --- serve ------------------------------------------------------------------ *)

let serve_cmd =
  let stdio_arg =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:
            "Serve line-framed JSON requests on stdin/stdout until EOF — the \
             transport tests and scripted transcripts use.")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix domain socket at $(docv), one thread per \
             connection, all sharing one schedule cache.")
  in
  let registry_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "registry" ] ~docv:"DIR"
          ~doc:
            "Persist the schedule cache under $(docv) (crash-safe writes; \
             corrupt entries are quarantined to *.corrupt on load).")
  in
  let max_disk_mb_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "max-disk-mb" ] ~docv:"MB"
          ~doc:
            "Cap the --registry disk store at $(docv) mebibytes: past it, \
             the oldest-mtime cache files are evicted after every write \
             (counted in stats and as tacos_registry_evicted_total).")
  in
  let queue_limit_arg =
    Arg.(
      value & opt positive_int 16
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Max in-flight requests before load is shed with structured \
             'overloaded' responses.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline for requests that carry none; past \
             it the server degrades to the best feasible baseline \
             (degraded:true) instead of overrunning.")
  in
  let metrics_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-file" ] ~docv:"PATH"
          ~doc:
            "Flush the Prometheus text exposition (the same document the \
             'metrics' verb serves) to $(docv) periodically and on exit; \
             written atomically (temp file + rename) so scrapers never see \
             a torn file. Each flush carries the monotonic \
             tacos_serve_uptime_seconds stamp.")
  in
  let metrics_interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "metrics-interval" ] ~docv:"SECS"
          ~doc:"Seconds between --metrics-file flushes.")
  in
  let access_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"PATH"
          ~doc:
            "Append one logfmt record per request (id, verb, outcome, \
             latency, deadline slack, bytes out, monotonic t= stamp) to \
             $(docv); '-' logs to stderr.")
  in
  let serve_loop svc ic oc =
    try
      while true do
        let line = input_line ic in
        if String.trim line <> "" then begin
          output_string oc (Service.handle_line svc line);
          output_char oc '\n';
          flush oc
        end
      done
    with End_of_file | Sys_error _ -> ()
  in
  let run stdio socket registry_dir max_disk_mb queue_limit deadline_ms
      metrics_file metrics_interval access_log seed trials domains =
    if (not stdio) && socket = None then
      fail "pass --stdio or --socket PATH (nothing to serve on)"
    else if metrics_interval <= 0. then fail "--metrics-interval must be positive"
    else if max_disk_mb <> None && registry_dir = None then
      fail "--max-disk-mb needs --registry DIR (nothing on disk to cap)"
    else
      reporting_failures @@ fun () ->
      (* The daemon keeps observability on: serve.* counters feed the
         stats op, the metrics exposition, and any profile taken against a
         long-running server. *)
      Obs.enable ();
      let access_sink, close_access =
        match access_log with
        | None -> (None, fun () -> ())
        | Some "-" -> (Some (fun line -> Printf.eprintf "%s\n%!" line), fun () -> ())
        | Some path ->
          let oc =
            open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path
          in
          ( Some
              (fun line ->
                output_string oc line;
                output_char oc '\n';
                flush oc),
            fun () -> close_out_noerr oc )
      in
      let config =
        {
          Service.queue_limit;
          domains;
          trials;
          default_deadline_ms = deadline_ms;
          registry_dir;
          max_disk_bytes = Option.map (fun mb -> mb * 1024 * 1024) max_disk_mb;
          seed;
          access_log = access_sink;
        }
      in
      let svc = Service.create ~config () in
      let flush_metrics () =
        match metrics_file with
        | None -> ()
        | Some path -> (
          let tmp = path ^ ".tmp" in
          try
            let oc = open_out tmp in
            output_string oc (Service.metrics svc);
            close_out oc;
            Sys.rename tmp path
          with Sys_error _ -> ())
      in
      if metrics_file <> None then
        ignore
          (Thread.create
             (fun () ->
               while true do
                 Thread.delay metrics_interval;
                 flush_metrics ()
               done)
             ());
      match socket with
      | None ->
        serve_loop svc stdin stdout;
        (* Short scripted transcripts end before the first periodic tick:
           flush once more so --metrics-file always has the final state. *)
        flush_metrics ();
        close_access ();
        `Ok ()
      | Some path -> (
        (* A socket file left behind by a previous run would make bind fail
           with EADDRINUSE. Unlink it — but only if it actually is a
           socket: silently clobbering a regular file at that path would
           destroy user data. *)
        let stale =
          match Unix.lstat path with
          | { Unix.st_kind = Unix.S_SOCK; _ } -> Ok true
          | _ -> Error (Printf.sprintf "refusing to replace non-socket file %s" path)
          | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok false
        in
        match stale with
        | Error msg -> fail "--socket: %s" msg
        | Ok was_stale ->
          if was_stale then begin
            Printf.eprintf "tacos serve: removing stale socket %s\n%!" path;
            try Unix.unlink path with Unix.Unix_error _ -> ()
          end;
          let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.bind sock (Unix.ADDR_UNIX path);
          Unix.listen sock 64;
          (* Clean shutdown (SIGINT/SIGTERM): remove the socket so the next
             start binds without finding our corpse, flush the final
             metrics snapshot, and close the access log. *)
          let cleanup () =
            (try Unix.unlink path with Unix.Unix_error _ -> ());
            flush_metrics ();
            close_access ()
          in
          let on_signal _ =
            cleanup ();
            exit 0
          in
          Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
          Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
          Printf.eprintf "tacos serve: listening on %s\n%!" path;
          let rec accept_loop () =
            let conn, _ = Unix.accept sock in
            ignore
              (Thread.create
                 (fun conn ->
                   let ic = Unix.in_channel_of_descr conn in
                   let oc = Unix.out_channel_of_descr conn in
                   serve_loop svc ic oc;
                   try Unix.close conn with Unix.Unix_error _ -> ())
                 conn);
            accept_loop ()
          in
          (* If accept ever fails hard, still leave a clean filesystem. *)
          Fun.protect ~finally:cleanup accept_loop)
  in
  let term =
    Term.(
      ret
        (const run $ stdio_arg $ socket_arg $ registry_arg $ max_disk_mb_arg
       $ queue_limit_arg $ deadline_arg $ metrics_file_arg $ metrics_interval_arg
       $ access_log_arg $ seed_arg $ trials_arg $ domains_arg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the synthesis service: a persistent daemon answering \
          synthesize/tune/export requests over line-framed JSON, with a \
          shared crash-safe schedule cache, per-request deadlines with \
          graceful degradation, bounded admission, Prometheus metrics \
          exposition and a structured access log")
    term

(* --- top --------------------------------------------------------------------- *)

(* A live terminal dashboard over a running server: poll the stats verb on
   its Unix socket, difference the counters for rates, and render the
   latency-quantile table. Doubles as the CLI front end of the exposition
   validator (--validate), the way `tacos trace --validate` fronts
   Chrome.validate. *)
let top_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix socket of the running 'tacos serve --socket' instance.")
  in
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECS" ~doc:"Seconds between polls.")
  in
  let iterations_arg =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:
            "Render $(docv) frames and exit (scripted use); 0 polls until \
             interrupted.")
  in
  let validate_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "validate" ] ~docv:"FILE"
          ~doc:
            "Validate $(docv) as a Prometheus text exposition (e.g. a \
             --metrics-file flush or a saved 'metrics' scrape) and exit.")
  in
  let poll_stats path =
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect sock (Unix.ADDR_UNIX path);
        let oc = Unix.out_channel_of_descr sock in
        let ic = Unix.in_channel_of_descr sock in
        output_string oc "{\"op\":\"stats\"}\n";
        flush oc;
        Json.parse (input_line ic))
  in
  let bytes_pp b =
    if b >= 1048576. then Printf.sprintf "%.1f MB" (b /. 1048576.)
    else if b >= 1024. then Printf.sprintf "%.1f KB" (b /. 1024.)
    else Printf.sprintf "%.0f B" b
  in
  let render path doc ~rps =
    let num k = match Json.member k doc with Some (Json.Number v) -> v | _ -> 0. in
    let obj k = match Json.member k doc with Some (Json.Object l) -> l | _ -> [] in
    let hits = num "hits" and misses = num "misses" in
    let accepted = num "accepted" and shed = num "shed" in
    let answered = hits +. misses in
    let offered = accepted +. shed in
    Printf.printf "tacos top — %s — uptime %.1fs — inflight %.0f\n" path
      (num "uptime_seconds") (num "inflight");
    Printf.printf
      "requests  accepted=%.0f  rps=%.1f  hit=%s  shed=%s  degraded=%.0f  \
       deadline_missed=%.0f  errors=%.0f\n"
      accepted rps
      (if answered > 0. then Table.cell_percent (hits /. answered) else "-")
      (if offered > 0. then Table.cell_percent (shed /. offered) else "-")
      (num "degraded") (num "deadline_missed") (num "errors");
    let reg = Json.Object (obj "registry") in
    let rnum k = match Json.member k reg with Some (Json.Number v) -> v | _ -> 0. in
    Printf.printf
      "registry  %.0f in memory, %.0f on disk (%s, %.0f corrupt, %.0f \
       quarantined)\n\n"
      (rnum "entries") (rnum "disk_entries")
      (bytes_pp (rnum "disk_bytes"))
      (rnum "disk_corrupt") (num "quarantined");
    let rows =
      List.filter_map
        (fun (verb, q) ->
          match q with
          | Json.Object _ ->
            let qn k =
              match Json.member k q with Some (Json.Number v) -> v | _ -> 0.
            in
            Some
              [
                verb;
                Printf.sprintf "%.0f" (qn "count");
                Table.cell_float ~decimals:3 (qn "p50");
                Table.cell_float ~decimals:3 (qn "p90");
                Table.cell_float ~decimals:3 (qn "p95");
                Table.cell_float ~decimals:3 (qn "p99");
              ]
          | _ -> None)
        (obj "latency_ms")
    in
    if rows <> [] then
      Table.print
        ~header:[ "verb"; "count"; "p50 ms"; "p90 ms"; "p95 ms"; "p99 ms" ]
        rows
  in
  let run socket interval iterations validate =
    match validate with
    | Some file -> (
      reporting_failures @@ fun () ->
      let text = In_channel.with_open_bin file In_channel.input_all in
      match Tacos_obs.Expo.validate text with
      | Ok () ->
        let samples =
          match Tacos_obs.Expo.parse text with Ok l -> List.length l | Error _ -> 0
        in
        Printf.printf "%s: valid Prometheus text exposition (%d samples)\n" file
          samples;
        `Ok ()
      | Error e -> fail "%s: invalid exposition: %s" file e)
    | None -> (
      match socket with
      | None -> fail "pass --socket PATH to watch a server (or --validate FILE)"
      | Some path ->
        if interval <= 0. then fail "--interval must be positive"
        else begin
          let prev_accepted = ref nan in
          let prev_t = ref nan in
          let frame i =
            match poll_stats path with
            | Error e -> fail "%s: bad stats response: %s" path e
            | Ok doc ->
              let accepted =
                match Json.member "accepted" doc with
                | Some (Json.Number v) -> v
                | _ -> 0.
              in
              let now = Unix.gettimeofday () in
              let rps =
                if Float.is_nan !prev_accepted || now <= !prev_t then 0.
                else (accepted -. !prev_accepted) /. (now -. !prev_t)
              in
              prev_accepted := accepted;
              prev_t := now;
              (* ANSI clear + home, like every terminal dashboard; frames
                 scroll plainly when the output is not a tty. *)
              if Unix.isatty Unix.stdout then print_string "\027[2J\027[H"
              else if i > 0 then print_newline ();
              render path doc ~rps;
              flush stdout;
              `Ok ()
          in
          let rec loop i =
            match frame i with
            | `Ok () ->
              if iterations > 0 && i + 1 >= iterations then `Ok ()
              else begin
                Thread.delay interval;
                loop (i + 1)
              end
            | err -> err
          in
          try loop 0 with
          | Unix.Unix_error (e, _, _) ->
            fail "%s: %s (is 'tacos serve --socket' running?)" path
              (Unix.error_message e)
          | End_of_file -> fail "%s: connection closed mid-response" path
        end)
  in
  let term =
    Term.(
      ret (const run $ socket_arg $ interval_arg $ iterations_arg $ validate_arg))
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard over a running synthesis server: RPS, hit \
          ratio, shed rate, per-verb latency quantiles and registry size, \
          polled from its Unix socket; --validate checks a Prometheus \
          exposition file instead")
    term

(* --- info -------------------------------------------------------------------- *)

let info_cmd =
  let run topo_str alpha bw =
    match
      Parse.parse_topology ~alpha:(alpha *. 1e-6) ~bw:(Units.gbps bw) topo_str
    with
    | Error e -> fail "%s" e
    | Ok topo ->
      Format.printf "%a@." Topology.pp topo;
      Format.printf "strongly connected: %b@." (Topology.is_strongly_connected topo);
      Format.printf "diameter (latency): %s@."
        (Units.time_pp (Topology.diameter_latency topo));
      Format.printf "min ingress bw:     %s@."
        (Units.bandwidth_pp (Topology.min_ingress_bandwidth topo));
      Format.printf "total bw:           %s@."
        (Units.bandwidth_pp (Topology.total_bandwidth topo));
      (match Topology.hierarchy topo with
      | Some dims ->
        Format.printf "hierarchy:          %s@."
          (String.concat " x "
             (Array.to_list
                (Array.map
                   (fun (d : Topology.dim) ->
                     let kind =
                       match d.kind with
                       | Topology.Ring_dim -> "Ring"
                       | Topology.Mesh_dim -> "Mesh"
                       | Topology.Fully_connected_dim -> "FC"
                       | Topology.Switch_dim k -> Printf.sprintf "Switch(d=%d)" k
                     in
                     Printf.sprintf "%s[%d]" kind d.size)
                   dims)))
      | None -> ());
      (match Topology.rings topo with
      | Some rings -> Format.printf "ring embeddings:    %d recorded@." (List.length rings)
      | None -> ());
      `Ok ()
  in
  let term = Term.(ret (const run $ topology_arg $ alpha_arg $ bw_arg)) in
  Cmd.v (Cmd.info "info" ~doc:"Show topology properties") term

let () =
  let doc = "TACOS: topology-aware collective algorithm synthesizer" in
  let info = Cmd.info "tacos" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            synthesize_cmd; compare_cmd; tune_cmd; pareto_cmd; profile_cmd;
            trace_cmd; faults_cmd; serve_cmd; top_cmd; info_cmd;
          ]))
