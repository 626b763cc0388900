(* In-memory span recorder for the traced run. Spans are taken in the
   benchmark's own code around each call into a layer; nothing inside the
   program is instrumented. When disabled every operation is a no-op, so
   the untraced run does no span bookkeeping at all. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  cat : string;  (** the layer the span's call enters *)
  t0 : float;
  t1 : float;
}

type t = {
  enabled : bool;
  origin : float;
  mutable next : int;
  mutable open_ : int list;  (** ids of the spans enclosing the caller *)
  mutable spans : span list;
}

let create ~enabled =
  { enabled; origin = Unix.gettimeofday (); next = 1; open_ = []; spans = [] }

let current t = match t.open_ with id :: _ -> id | [] -> 0

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let record t ~parent ~cat name t0 t1 =
  if t.enabled then
    t.spans <- { id = fresh t; parent; name; cat; t0; t1 } :: t.spans

let with_span t ~cat name f =
  if not t.enabled then f ()
  else begin
    let id = fresh t and parent = current t in
    t.open_ <- id :: t.open_;
    let t0 = Unix.gettimeofday () in
    let finally () =
      t.open_ <- List.tl t.open_;
      t.spans <-
        { id; parent; name; cat; t0; t1 = Unix.gettimeofday () } :: t.spans
    in
    Fun.protect ~finally f
  end

let count t = List.length t.spans

(* Self time per layer: a span's duration minus the part its children
   cover (children of one span never overlap: the benchmark is
   single-threaded). *)
let self_times t =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent) in
      Hashtbl.replace child_time s.parent (prev +. (s.t1 -. s.t0)))
    t.spans;
  let by_cat = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_cat s.cat) in
      Hashtbl.replace by_cat s.cat (prev +. (s.t1 -. s.t0 -. covered)))
    t.spans;
  List.sort compare (List.of_seq (Hashtbl.to_seq by_cat))

(* Chrome trace-event JSON ("X" complete events, microseconds), loadable in
   chrome://tracing or Perfetto. *)
let write_chrome t path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
         \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d}}\n"
        (if i = 0 then "" else ",")
        s.name s.cat
        ((s.t0 -. t.origin) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent)
    (List.rev t.spans);
  output_string oc "]}\n";
  close_out oc
