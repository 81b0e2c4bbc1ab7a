(* In-memory span recorder for the traced run.

   A span is opened around one call into a layer's public function, from the
   benchmark's own code: it records its name, start and end, the span that
   was open when it began (its parent) and the request it served. Spans are
   buffered per domain and only written out when the run ends, so recording
   costs a clock read and a list cons. When tracing is off, [run] is a plain
   call. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  req : int;  (** request id; 0 outside any request *)
  start : float;
  stop : float;
}

let on = Atomic.make false
let next_id = Atomic.make 1

type local = { mutable stack : int list; mutable req : int; mutable closed : t list }

let locals = ref []
let locals_lock = Mutex.create ()

let local_key =
  Domain.DLS.new_key (fun () ->
      let l = { stack = []; req = 0; closed = [] } in
      Mutex.protect locals_lock (fun () -> locals := l :: !locals);
      l)

let enable () = Atomic.set on true

let run name f =
  if not (Atomic.get on) then f ()
  else begin
    let l = Domain.DLS.get local_key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match l.stack with p :: _ -> p | [] -> 0 in
    l.stack <- id :: l.stack;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        l.stack <- List.tl l.stack;
        l.closed <- { id; parent; name; req = l.req; start; stop } :: l.closed)
      f
  end

(* A root span for one request: every span opened inside carries [req]. *)
let request req f =
  if not (Atomic.get on) then f ()
  else begin
    let l = Domain.DLS.get local_key in
    let outer = l.req in
    l.req <- req;
    Fun.protect ~finally:(fun () -> l.req <- outer) (fun () -> run "request" f)
  end

(* Every span closed since the last [drain], removed from the buffers. *)
let drain () =
  Mutex.protect locals_lock (fun () ->
      List.concat_map
        (fun l ->
          let s = l.closed in
          l.closed <- [];
          s)
        !locals)

let duration s = s.stop -. s.start

(* The layer a span belongs to: its name up to the first dot. *)
let layer s =
  match String.index_opt s.name '.' with
  | Some i -> String.sub s.name 0 i
  | None -> s.name

(* Self time per layer over the request trees in [spans]: a span's duration
   minus the part its children cover. Spans outside any "request" root are
   ignored. Returns [(layer, seconds)] and the total of the request roots;
   the root's own self time is the unattributed remainder. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let d = duration s in
      Hashtbl.replace children s.parent
        (d +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    spans;
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec in_request s =
    s.name = "request"
    || (match Hashtbl.find_opt by_id s.parent with Some p -> in_request p | None -> false)
  in
  let selfs = Hashtbl.create 16 in
  let roots = ref 0. in
  List.iter
    (fun s ->
      if in_request s then begin
        let self =
          duration s -. Option.value ~default:0. (Hashtbl.find_opt children s.id)
        in
        let key = if s.name = "request" then "unattributed" else layer s in
        if s.name = "request" then roots := !roots +. duration s;
        Hashtbl.replace selfs key
          (self +. Option.value ~default:0. (Hashtbl.find_opt selfs key))
      end)
    spans;
  (Hashtbl.fold (fun k v acc -> (k, v) :: acc) selfs [], !roots)

let to_json s =
  Printf.sprintf
    "{\"id\":%d,\"parent\":%d,\"name\":%S,\"req\":%d,\"start\":%.6f,\"end\":%.6f}" s.id
    s.parent s.name s.req s.start s.stop

let write path spans =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc (to_json s);
          output_char oc '\n')
        (List.sort (fun a b -> compare a.id b.id) spans))
