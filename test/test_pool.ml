(* Tacos_util.Pool — the shared spawn-once domain pool behind every
   [?domains] knob. The properties that matter downstream: futures carry
   values and exceptions faithfully, [map] preserves index order, nested
   submission from inside a task cannot deadlock (awaiting helps drain the
   queue), and a size-1 pool degenerates to inline execution. *)

module Pool = Tacos_util.Pool

exception Boom of int

let test_submit_await () =
  let p = Pool.create ~size:3 () in
  let futs = List.init 20 (fun i -> Pool.submit p (fun () -> (i * 7) + 1)) in
  List.iteri
    (fun i fut ->
      Alcotest.(check int) (Printf.sprintf "future %d" i) ((i * 7) + 1)
        (Pool.await p fut))
    futs;
  Pool.shutdown p

let test_exception_propagates () =
  let p = Pool.create ~size:2 () in
  let ok = Pool.submit p (fun () -> "fine") in
  let bad = Pool.submit p (fun () -> raise (Boom 42)) in
  Alcotest.(check string) "healthy task unaffected" "fine" (Pool.await p ok);
  (match Pool.await p bad with
  | _ -> Alcotest.fail "await of a failed task must raise"
  | exception Boom n -> Alcotest.(check int) "original exception" 42 n);
  (* The pool survives a failed task. *)
  Alcotest.(check int) "pool still serves" 5
    (Pool.await p (Pool.submit p (fun () -> 5)));
  Pool.shutdown p

let test_map_order () =
  let p = Pool.create ~size:4 () in
  let check_squares what out =
    Alcotest.(check int) (what ^ " length") 50 (Array.length out);
    Array.iteri
      (fun i v ->
        Alcotest.(check int) (Printf.sprintf "%s slot %d" what i) (i * i) v)
      out
  in
  check_squares "map" (Pool.map p (fun i -> i * i) 50);
  Pool.shutdown p;
  (* [init] is the same contract whether it runs inline or on the global
     pool. *)
  List.iter
    (fun domains ->
      check_squares
        (Printf.sprintf "init ~domains:%d" domains)
        (Pool.init ~domains 50 (fun i -> i * i)))
    [ 1; 3 ]

let test_nested_submission () =
  (* A task that itself submits and awaits on the same (tiny) pool: with
     blocking waiters this deadlocks once both workers hold outer tasks;
     the helping [await] must drain the inner tasks instead. This is
     exactly the Plan -> Synthesizer nesting shape. *)
  let p = Pool.create ~size:2 () in
  let outer =
    Pool.map p
      (fun i ->
        let inner = Pool.map p (fun j -> (10 * i) + j) 4 in
        Array.fold_left ( + ) 0 inner)
      6
  in
  Array.iteri
    (fun i v ->
      Alcotest.(check int) (Printf.sprintf "outer %d" i) ((40 * i) + 6) v)
    outer;
  Pool.shutdown p

let test_size_one_inline () =
  let p = Pool.create ~size:1 () in
  Alcotest.(check int) "size clamped to 1" 1 (Pool.size p);
  let self = Domain.self () in
  let fut = Pool.submit p (fun () -> Domain.self () = self) in
  Alcotest.(check bool) "size-1 pool runs on the caller's domain" true
    (Pool.await p fut);
  Pool.shutdown p

let test_shutdown_rejects_submit () =
  let p = Pool.create ~size:2 () in
  let fut = Pool.submit p (fun () -> 9) in
  Alcotest.(check int) "pre-shutdown task" 9 (Pool.await p fut);
  Pool.shutdown p;
  match Pool.submit p (fun () -> 0) with
  | _ -> Alcotest.fail "submit after shutdown must raise"
  | exception Invalid_argument _ -> ()

let test_global_pool_grows () =
  let g2 = Pool.global ~size:2 () in
  let g4 = Pool.global ~size:4 () in
  Alcotest.(check bool) "one shared instance" true (g2 == g4);
  Alcotest.(check bool) "capacity is monotonic" true (Pool.size g4 >= 4);
  let out = Pool.map g4 (fun i -> i + 100) 16 in
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "global %d" i) (i + 100) v)
    out

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "submit/await round-trips values" `Quick
            test_submit_await;
          Alcotest.test_case "exceptions propagate to await" `Quick
            test_exception_propagates;
          Alcotest.test_case "map preserves index order" `Quick test_map_order;
          Alcotest.test_case "nested submission does not deadlock" `Quick
            test_nested_submission;
          Alcotest.test_case "size-1 runs inline" `Quick test_size_one_inline;
          Alcotest.test_case "submit after shutdown rejected" `Quick
            test_shutdown_rejects_submit;
          Alcotest.test_case "global pool is shared and grows" `Quick
            test_global_pool_grows;
        ] );
    ]
