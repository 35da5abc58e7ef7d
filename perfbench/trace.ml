(* In-memory spans recorded by the benchmark around the public calls it
   makes into each layer.  The hierarchy is workload -> pass -> app ->
   one span per layer call; every span names its parent, and the spans of
   one app share its app id.  Nothing is written until [write]. *)

type span = {
  sp_id : int;
  sp_parent : int;  (** 0 for the root *)
  sp_app : int;  (** 0 outside any app *)
  sp_pass : int;  (** 0 outside any pass *)
  sp_name : string;
  sp_t0 : float;
  mutable sp_t1 : float;
  mutable sp_args : (string * int) list;  (** counter deltas *)
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 1 }

let open_ t ?(parent = 0) ?(app = 0) ?(pass = 0) name =
  let s =
    {
      sp_id = t.next;
      sp_parent = parent;
      sp_app = app;
      sp_pass = pass;
      sp_name = name;
      sp_t0 = Host.now ();
      sp_t1 = nan;
      sp_args = [];
    }
  in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  s

let close s = s.sp_t1 <- Host.now ()

(* A span a crash left open has no duration. *)
let duration s = if Float.is_nan s.sp_t1 then 0. else s.sp_t1 -. s.sp_t0

(* Self time per span name within one pass: a span's duration minus the
   time its children cover (children never overlap: every call is
   sequential). *)
let self_times t ~pass =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.sp_pass = pass then
        Hashtbl.replace children s.sp_parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt children s.sp_parent)))
    t.spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      if s.sp_pass = pass then begin
        let self =
          duration s
          -. Option.value ~default:0. (Hashtbl.find_opt children s.sp_id)
        in
        Hashtbl.replace by_name s.sp_name
          (self +. Option.value ~default:0. (Hashtbl.find_opt by_name s.sp_name))
      end)
    t.spans;
  by_name

(* Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
   event per span, parent and app ids in the args. *)
let write t ~path ~meta =
  let buf = Buffer.create (1 lsl 20) in
  let epoch =
    List.fold_left (fun acc s -> Float.min acc s.sp_t0) infinity t.spans
  in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"app\":%d,\"pass\":%d"
        (Extr_httpmodel.Json.escape_string s.sp_name)
        (1e6 *. (s.sp_t0 -. epoch))
        (1e6 *. duration s)
        s.sp_id s.sp_parent s.sp_app s.sp_pass;
      List.iter (fun (k, v) -> Printf.bprintf buf ",\"%s\":%d" k v) s.sp_args;
      Buffer.add_string buf "}}")
    (List.rev t.spans);
  Buffer.add_string buf "],\"otherData\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "\"%s\":\"%s\"" k (Extr_httpmodel.Json.escape_string v))
    meta;
  Buffer.add_string buf "}}\n";
  Extr_telemetry.Export.write_file path (Buffer.contents buf)
