(* A fixed pool of worker domains with helping [await].

   One mutex/condition pair guards everything: the task queue, the stop
   flag, and every future's state cell. The condition is broadcast on
   every state change (submission, task completion, shutdown); each
   waiter re-checks its own predicate, so workers and awaiters can share
   it without lost wakeups. Tasks are heavyweight (whole syntheses), so
   the coarse locking is never contended in practice.

   Deadlock-freedom under nested submission: [await] runs queued tasks
   while its future is pending, so a task that submits to its own pool
   and awaits makes progress even when every worker is busy — the
   waiters themselves drain the queue. The task dependency graph is
   acyclic by construction (phases await sub-syntheses await trials), so
   helping always terminates. *)

type task = unit -> unit

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  queue : task Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  mutable capacity : int; (* workers + the awaiting caller *)
}

type 'a state = Pending | Done of 'a | Failed of exn
type 'a future = { mutable state : 'a state }

(* The runtime supports at most 128 live domains; leave headroom for the
   main domain and anything the embedding application spawns. *)
let clamp n = max 1 (min n 126)

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
    else if t.stop then None
    else begin
      Condition.wait t.cond t.mutex;
      next ()
    end
  in
  match next () with
  | None -> Mutex.unlock t.mutex
  | Some task ->
    Mutex.unlock t.mutex;
    task ();
    worker_loop t

(* Grow to [target] capacity (monotonic; never shrinks). *)
let grow t target =
  let target = clamp target in
  Mutex.lock t.mutex;
  let missing = if t.stop then 0 else target - t.capacity in
  if missing > 0 then t.capacity <- target;
  Mutex.unlock t.mutex;
  for _ = 1 to missing do
    let d = Domain.spawn (fun () -> worker_loop t) in
    Mutex.lock t.mutex;
    t.workers <- d :: t.workers;
    Mutex.unlock t.mutex
  done

let create ?size () =
  let size =
    clamp (match size with Some n -> n | None -> Domain.recommended_domain_count ())
  in
  let t =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      stop = false;
      workers = [];
      capacity = 1;
    }
  in
  grow t size;
  t

let size t =
  Mutex.lock t.mutex;
  let c = t.capacity in
  Mutex.unlock t.mutex;
  c

let submit t f =
  let fut = { state = Pending } in
  let task () =
    let s = (match f () with v -> Done v | exception e -> Failed e) in
    Mutex.lock t.mutex;
    fut.state <- s;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex
  in
  Mutex.lock t.mutex;
  if t.stop then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push task t.queue;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  fut

let await t fut =
  let rec loop () =
    Mutex.lock t.mutex;
    match fut.state with
    | Done v ->
      Mutex.unlock t.mutex;
      v
    | Failed e ->
      Mutex.unlock t.mutex;
      raise e
    | Pending ->
      if not (Queue.is_empty t.queue) then begin
        let task = Queue.pop t.queue in
        Mutex.unlock t.mutex;
        task ()
      end
      else begin
        Condition.wait t.cond t.mutex;
        Mutex.unlock t.mutex
      end;
      loop ()
  in
  loop ()

let map t f n =
  if n <= 0 then [||]
  else begin
    (* Submit in index order, await in index order: the result array is
       independent of execution interleaving. *)
    let rec submit_all i acc =
      if i = n then List.rev acc
      else submit_all (i + 1) (submit t (fun () -> f i) :: acc)
    in
    let futs = submit_all 0 [] in
    Array.of_list (List.map (fun fut -> await t fut) futs)
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.cond;
  let workers = t.workers in
  t.workers <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

(* The process-wide shared pool. Created lazily, grown on request,
   reaped at exit. *)
let global_mutex = Mutex.create ()
let global_pool = ref None

let global ?size () =
  Mutex.lock global_mutex;
  let p =
    match !global_pool with
    | Some p -> p
    | None ->
      let p = create () in
      global_pool := Some p;
      at_exit (fun () -> shutdown p);
      p
  in
  Mutex.unlock global_mutex;
  (match size with Some s -> grow p s | None -> ());
  p

let init ~domains n f =
  if domains <= 1 || n <= 1 then Array.init n f
  else map (global ~size:domains ()) f n
