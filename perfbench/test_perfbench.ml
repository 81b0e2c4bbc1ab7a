(* Input generation of the benchmark: a workload seed fully determines what
   the program receives. *)

module Gen = Perfbench_gen.Gen

let workloads = [ "hetero_ar"; "torus512_ar"; "hier_1k" ]
let lines (s : Gen.serve_input) = Array.map (Array.map (Array.map (fun (l : Gen.line) -> l.Gen.line))) s.Gen.halves

let same_seed_same_serve_lines () =
  List.iter
    (fun seed ->
      List.iter
        (fun pass ->
          let a = Gen.serve_requests ~seed ~pass and b = Gen.serve_requests ~seed ~pass in
          Alcotest.(check int) "synthesis seed" a.Gen.serve_seed b.Gen.serve_seed;
          Alcotest.(check bool) "request lines" true (lines a = lines b))
        [ 0; 3 ])
    [ 0; 1; 42; 1_000_003 ]

let same_seed_same_synthesis_inputs () =
  List.iter
    (fun workload ->
      List.iter
        (fun seed ->
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d" workload seed)
            true
            (Gen.synth_requests ~workload ~seed = Gen.synth_requests ~workload ~seed))
        [ 0; 1; 42 ])
    workloads

let seed_changes_order_not_mix () =
  let a = Gen.serve_requests ~seed:1 ~pass:0 and b = Gen.serve_requests ~seed:2 ~pass:0 in
  let a1 = Gen.serve_requests ~seed:1 ~pass:1 in
  Alcotest.(check bool) "different order" false (lines a = lines b);
  Alcotest.(check bool) "passes differ" false (lines a = lines a1);
  Alcotest.(check int) "one synthesis seed per run" a.Gen.serve_seed a1.Gen.serve_seed;
  let mix (s : Gen.serve_input) =
    List.sort compare
      (List.concat_map
         (fun half -> List.concat_map (fun c -> List.map (fun (l : Gen.line) -> l.Gen.kind) (Array.to_list c)) (Array.to_list half))
         (Array.to_list s.Gen.halves))
  in
  Alcotest.(check bool) "same request multiset" true (mix a = mix b && mix a = mix a1);
  Alcotest.(check int) "requests per pass" (2 * Gen.half_requests) (List.length (mix a))

let lines_are_valid_requests () =
  Array.iter
    (Array.iter
       (Array.iter (fun (l : Gen.line) ->
            match Tacos_serve.Protocol.parse_request l.Gen.line with
            | Ok _ -> ()
            | Error (_, e) -> Alcotest.failf "%s: %s" l.Gen.line e)))
    (Gen.serve_requests ~seed:3 ~pass:0).Gen.halves

let synthesize_comes_first () =
  Array.iter
    (fun half ->
      let seen = Hashtbl.create 32 in
      Array.iter
        (Array.iter (fun (l : Gen.line) ->
             match l.Gen.kind with
             | Gen.Synthesize k -> Hashtbl.replace seen k ()
             | Gen.Export_json k | Gen.Export_csv k ->
               if not (Hashtbl.mem seen k) then Alcotest.failf "export of key %d before its synthesize" k
             | _ -> ()))
        half)
    (Gen.serve_requests ~seed:5 ~pass:2).Gen.halves

let edge_list_matches_builder () =
  let parsed =
    match Tacos_collective.Parse.parse_topology_lines (Gen.edge_lines (Gen.switch_2d_8x4 ())) with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "fingerprint"
    (Tacos.Registry.fingerprint (Gen.switch_2d_8x4 ()))
    (Tacos.Registry.fingerprint parsed)

let () =
  Alcotest.run "perfbench"
    [
      ( "gen",
        [
          Alcotest.test_case "same seed, same serve_mix lines" `Quick same_seed_same_serve_lines;
          Alcotest.test_case "same seed, same synthesis inputs" `Quick same_seed_same_synthesis_inputs;
          Alcotest.test_case "seed reorders, keeps the mix" `Quick seed_changes_order_not_mix;
          Alcotest.test_case "serve lines parse" `Quick lines_are_valid_requests;
          Alcotest.test_case "a key's first request is a synthesize" `Quick synthesize_comes_first;
          Alcotest.test_case "edge list matches builder" `Quick edge_list_matches_builder;
        ] );
    ]
