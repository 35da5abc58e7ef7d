(* Exporters, and the decoders that read their artifacts back.  JSON is
   emitted by hand straight into a buffer (the format is fixed and the
   metrics snapshot is written on every run); decoding goes through
   lib/httpmodel's JSON values, so each artifact has exactly one reader,
   here beside its writer. *)

module Json = Extr_httpmodel.Json

let buf_add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no infinity; histogram overflow bounds print as a string.
   Finite values print at the shortest precision that round-trips, so
   microsecond timestamps near 1e15 keep their low digits. *)
let buf_add_json_float buf f =
  if Float.is_integer f && Float.abs f < 1e18 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else if Float.is_finite f then begin
    let short = Printf.sprintf "%.12g" f in
    Buffer.add_string buf
      (if float_of_string short = f then short else Printf.sprintf "%.17g" f)
  end
  else buf_add_json_string buf (if f > 0.0 then "+inf" else "-inf")

let buf_add_fields buf fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, add_v) ->
      if i > 0 then Buffer.add_char buf ',';
      buf_add_json_string buf k;
      Buffer.add_char buf ':';
      add_v buf)
    fields;
  Buffer.add_char buf '}'

let str s buf = buf_add_json_string buf s
let num f buf = buf_add_json_float buf f
let int n buf = Buffer.add_string buf (string_of_int n)

(* ------------------------------------------------------------------ *)
(* Chrome trace events                                                *)
(* ------------------------------------------------------------------ *)

let us f = Float.round (f *. 1e6)

(* Every event carries pid 1: the lanes are threads of one process. *)
let pid = 1

let buf_add_span_event buf ~tid ~epoch (sp : Span.span) =
  let args =
    List.map (fun (k, v) -> (k, str v)) sp.Span.sp_args
    @ [
        ("alloc_words", num sp.Span.sp_alloc_words);
        ("major_collections", int sp.Span.sp_major_collections);
        ("depth", int sp.Span.sp_depth);
      ]
  in
  buf_add_fields buf
    [
      ("name", str sp.Span.sp_name);
      ("ph", str "X");
      ("ts", num (us (sp.Span.sp_begin_s -. epoch)));
      ("dur", num (us (Span.duration_s sp)));
      ("pid", int pid);
      ("tid", int tid);
      ("args", fun buf -> buf_add_fields buf args);
    ]

(* The common epoch every lane is rebased against: the earliest span
   begin across the whole fleet, so coordinator and worker lanes line up
   on one time axis (fork shares the clock domain, and the injectable
   test clocks are shared the same way). *)
let lanes_epoch lanes =
  let epoch =
    List.fold_left
      (fun acc (_, _, spans) ->
        List.fold_left
          (fun acc (sp : Span.span) -> Float.min acc sp.Span.sp_begin_s)
          acc spans)
      infinity lanes
  in
  if Float.is_finite epoch then epoch else 0.0

let chrome_trace_lanes lanes : string =
  (* Rebased timestamps keep [ts] small; absolute epoch microseconds push
     viewers into float-precision trouble. *)
  let epoch = lanes_epoch lanes in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_char buf ',' in
  List.iter
    (fun (label, tid, spans) ->
      (* One thread_name metadata record per lane, then the lane's spans
         in begin order — shipped batches arrive in completion order, so
         re-sort here to keep per-lane timestamps monotonic. *)
      sep ();
      buf_add_fields buf
        [
          ("name", str "thread_name");
          ("ph", str "M");
          ("pid", int pid);
          ("tid", int tid);
          ("args", fun buf -> buf_add_fields buf [ ("name", str label) ]);
        ];
      let spans =
        List.stable_sort
          (fun (a : Span.span) (b : Span.span) ->
            match compare a.Span.sp_begin_s b.Span.sp_begin_s with
            | 0 -> compare a.Span.sp_seq b.Span.sp_seq
            | c -> c)
          spans
      in
      List.iter
        (fun sp ->
          sep ();
          buf_add_span_event buf ~tid ~epoch sp)
        spans)
    lanes;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

(* Atomic write: a crash mid-export must never leave a truncated file
   behind.  Write to a temp file in the destination directory (rename is
   only atomic within one filesystem), then rename over the target.

   The temp name carries the pid and a per-process counter rather than
   going through [Filename.temp_file]: forked worker processes inherit
   the stdlib's temp-name PRNG state, so siblings writing into a shared
   cache directory would draw identical name sequences and race on the
   same temp file.  Pid alone is not enough once shards share an
   artifact directory across machines (or a pid is reused after a
   respawn), so each name also carries a random suffix drawn from
   /dev/urandom-seeded state private to this module. *)
let temp_counter = ref 0

let temp_rng =
  (* Seeded independently of the stdlib's default generator so forked
     workers and [Filename.temp_file] users never share a sequence. *)
  lazy
    (Random.State.make
       [|
         Unix.getpid ();
         int_of_float (Unix.gettimeofday () *. 1e6) land 0x3FFFFFFF;
         Hashtbl.hash (Unix.gethostname ());
       |])

(* Injectable write fault (installed by the resilience layer's fault
   plan, which lives above this library): consulted once per write with
   the destination path; the returned mode selects the failure.  The
   default hook injects nothing. *)
let write_fault : (string -> string option) ref = ref (fun _ -> None)
let set_write_fault f = write_fault := f

exception Orphaned_temp of string

let write_file path contents =
  let dir = Filename.dirname path in
  incr temp_counter;
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".%s.%d.%d.%06x.tmp" (Filename.basename path)
         (Unix.getpid ()) !temp_counter
         (Random.State.int (Lazy.force temp_rng) 0x1000000))
  in
  let fault = !write_fault path in
  (try
     Out_channel.with_open_text tmp (fun oc ->
         match fault with
         | Some "enospc" ->
             (* A partial write followed by the errno a full disk
                raises; the cleanup below removes the temp, exactly as
                on a real ENOSPC. *)
             Out_channel.output_string oc
               (String.sub contents 0 (String.length contents / 2));
             raise (Sys_error (path ^ ": No space left on device (injected)"))
         | Some "orphan" ->
             (* Simulate SIGKILL mid-write: the temp file survives
                because the process never reached its cleanup — the
                shape the startup sweep exists for. *)
             Out_channel.output_string oc
               (String.sub contents 0 (String.length contents / 2));
             raise (Orphaned_temp tmp)
         | Some "short" ->
             (* A filesystem that lied about durability: the write
                "succeeds" but the renamed target is truncated.
                Downstream integrity checks must catch it. *)
             Out_channel.output_string oc
               (String.sub contents 0 (String.length contents / 2))
         | _ -> Out_channel.output_string oc contents)
   with
  | Orphaned_temp _ ->
      raise (Sys_error (path ^ ": writer killed mid-write (injected)"))
  | e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  Sys.rename tmp path

(* Temp-file garbage collection: a process SIGKILLed between writing its
   temp and renaming it leaves an orphan behind (the atomicity contract
   above trades a possible orphan for never leaving a torn target).
   Orphans match the name shape written above and are only ever interim
   files, so any that have outlived a generous age are dead writers'
   leftovers, safe to unlink.  The age floor protects concurrent live
   writers in a shared artifact directory: their temps exist for
   milliseconds, an hour is far beyond any of them. *)
let temp_max_age_s = 3600.
let is_temp_name name =
  String.length name > 5
  && name.[0] = '.'
  && Filename.check_suffix name ".tmp"

let sweep_temps ~dir () =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      let now = Unix.gettimeofday () in
      Array.fold_left
        (fun swept name ->
          if not (is_temp_name name) then swept
          else
            let path = Filename.concat dir name in
            match Unix.stat path with
            | exception Unix.Unix_error _ -> swept
            | st ->
                if
                  st.Unix.st_kind = Unix.S_REG
                  && now -. st.Unix.st_mtime > temp_max_age_s
                then (
                  match Sys.remove path with
                  | () -> swept + 1
                  | exception Sys_error _ -> swept)
                else swept)
        0 names

(* ------------------------------------------------------------------ *)
(* Metrics snapshot                                                   *)
(* ------------------------------------------------------------------ *)

let kind_name = function
  | `Counter -> "counter"
  | `Gauge -> "gauge"
  | `Histogram -> "histogram"

let metrics_json (registry : Metrics.t) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"metrics\":[";
  List.iteri
    (fun i (s : Metrics.sample) ->
      if i > 0 then Buffer.add_char buf ',';
      let fields =
        [
          ("name", str s.Metrics.sa_name);
          ("kind", str (kind_name s.Metrics.sa_kind));
          ( "labels",
            fun buf ->
              buf_add_fields buf
                (List.map (fun (k, v) -> (k, str v)) s.Metrics.sa_labels) );
          ("count", int s.Metrics.sa_count);
          ("sum", num s.Metrics.sa_sum);
        ]
        @
        match s.Metrics.sa_buckets with
        | [] -> []
        | buckets ->
            [
              ( "buckets",
                fun buf ->
                  Buffer.add_char buf '[';
                  List.iteri
                    (fun j (bound, count) ->
                      if j > 0 then Buffer.add_char buf ',';
                      buf_add_fields buf [ ("le", num bound); ("n", int count) ])
                    buckets;
                  Buffer.add_char buf ']' );
            ]
            (* Percentile summaries alongside the raw buckets, so readers
               of the file need not re-derive the estimate; the decoder
               drops them, as Metrics.percentile recomputes the same
               values from the buckets. *)
            @ List.filter_map
                (fun (name, q) ->
                  Option.map
                    (fun v -> (name, num v))
                    (Metrics.percentile s q))
                [ ("p50", 50.0); ("p95", 95.0); ("p99", 99.0) ]
      in
      buf_add_fields buf fields)
    (Metrics.snapshot registry);
  Buffer.add_string buf "]}";
  Buffer.contents buf

let write_metrics path registry = write_file path (metrics_json registry)

(* Numbers as [buf_add_json_float] writes them, infinities included. *)
let float_of_json = function
  | Json.Float f -> Some f
  | Json.Int n -> Some (float_of_int n)
  | Json.Str "+inf" -> Some infinity
  | Json.Str "-inf" -> Some neg_infinity
  | _ -> None

let num_field key j = Option.bind (Json.member key j) float_of_json

(* One series back into a sample.  Help strings are not exported, and
   the percentile summaries are recomputed from the buckets by whoever
   needs them; a series of unknown shape is dropped, not fatal. *)
let sample_of_json j : Metrics.sample option =
  let kind =
    match Json.str_member "kind" j with
    | Some "counter" -> Some `Counter
    | Some "gauge" -> Some `Gauge
    | Some "histogram" -> Some `Histogram
    | _ -> None
  in
  match (Json.str_member "name" j, kind) with
  | Some sa_name, Some sa_kind ->
      let sa_labels =
        match Json.member "labels" j with
        | Some (Json.Obj fields) ->
            List.filter_map
              (function k, Json.Str v -> Some (k, v) | _ -> None)
              fields
        | _ -> []
      in
      let sa_buckets =
        List.filter_map
          (fun b ->
            match (num_field "le" b, Json.int_member "n" b) with
            | Some le, Some n -> Some (le, n)
            | _ -> None)
          (Option.value ~default:[] (Json.list_member "buckets" j))
      in
      Some
        {
          Metrics.sa_name;
          sa_kind;
          sa_help = "";
          sa_labels;
          sa_count = Option.value ~default:0 (Json.int_member "count" j);
          sa_sum = Option.value ~default:0.0 (num_field "sum" j);
          sa_buckets;
        }
  | _ -> None

let metrics_of_json contents =
  match Json.of_string_opt contents with
  | None -> Error "metrics file is not valid JSON"
  | Some j -> (
      match Json.list_member "metrics" j with
      | Some series -> Ok (List.filter_map sample_of_json series)
      | None -> Error "metrics file has no metrics[] series")

(* Read and decode an artifact file; a decoding error names the file. *)
let read_artifact decode path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents ->
      Result.map_error (fun msg -> path ^ ": " ^ msg) (decode contents)

let read_metrics = read_artifact metrics_of_json

(* ------------------------------------------------------------------ *)
(* Collapsed stacks (flamegraph folded format)                        *)
(* ------------------------------------------------------------------ *)

(* One line per distinct stack: frames root-first joined by ';', a
   space, then the sample weight — self time in integer microseconds,
   so flamegraph.pl / speedscope render the span tree directly.  Lanes
   are folded independently (each is its own properly-nested recording)
   and merged by summing; lines are sorted so the output is
   deterministic under any lane order. *)
let folded_lanes (lanes : Span.span list list) : string =
  let weights : (string, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun spans ->
      List.iter
        (fun (path, _, self_s) ->
          let key = String.concat ";" path in
          Hashtbl.replace weights key
            (Float.max 0.0 (self_s *. 1e6)
            +. Option.value ~default:0.0 (Hashtbl.find_opt weights key)))
        (Span.stacked spans))
    lanes;
  let lines =
    Hashtbl.fold
      (fun stack w acc -> Printf.sprintf "%s %.0f" stack w :: acc)
      weights []
  in
  String.concat "\n" (List.sort compare lines) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Per-method profile                                                 *)
(* ------------------------------------------------------------------ *)

(* Cumulative and self seconds per span name, summed over every
   occurrence in every lane — the per-phase envelope the per-method
   attribution must stay inside. *)
let phase_rollup (lanes : Span.span list list) : (string * float * float) list =
  let tbl : (string, float * float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun spans ->
      List.iter
        (fun (_, (sp : Span.span), self_s) ->
          let cum, self =
            Option.value ~default:(0.0, 0.0)
              (Hashtbl.find_opt tbl sp.Span.sp_name)
          in
          Hashtbl.replace tbl sp.Span.sp_name
            (cum +. Span.duration_s sp, self +. self_s))
        (Span.stacked spans))
    lanes;
  Hashtbl.fold (fun name (cum, self) acc -> (name, cum, self) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let profile_json ((sn : Profile.snapshot), phases) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"profile\":[";
  List.iteri
    (fun i (e : Profile.entry) ->
      if i > 0 then Buffer.add_char buf ',';
      buf_add_fields buf
        [
          ("method", str e.Profile.e_meth);
          ("phase", str e.Profile.e_phase);
          ("time_s", num e.Profile.e_time_s);
          ("fuel", int e.Profile.e_fuel);
          ("visits", int e.Profile.e_visits);
          ("facts", int e.Profile.e_facts);
        ])
    sn.Profile.sn_entries;
  Buffer.add_string buf "],\"waste\":[";
  List.iteri
    (fun i (w : Profile.waste) ->
      if i > 0 then Buffer.add_char buf ',';
      buf_add_fields buf
        [
          ("scope", str w.Profile.w_scope);
          ("touched_methods", int w.Profile.w_touched);
          ("contributing_methods", int w.Profile.w_contributing);
          ("waste_ratio", num (Profile.waste_ratio w));
        ])
    sn.Profile.sn_wastes;
  Buffer.add_string buf "],\"phases\":[";
  List.iteri
    (fun i (name, cum_s, self_s) ->
      if i > 0 then Buffer.add_char buf ',';
      buf_add_fields buf
        [ ("phase", str name); ("cum_s", num cum_s); ("self_s", num self_s) ])
    phases;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let profile_of_json contents =
  match Json.of_string_opt contents with
  | None -> Error "profile file is not valid JSON"
  | Some j -> (
      match Json.list_member "profile" j with
      | None -> Error "profile file has no profile[] rows"
      | Some rows ->
          let rows_of key decode =
            List.filter_map decode
              (Option.value ~default:[] (Json.list_member key j))
          in
          let int key m = Option.value ~default:0 (Json.int_member key m) in
          let num key m = Option.value ~default:0.0 (num_field key m) in
          let entry m =
            Option.map
              (fun e_meth ->
                {
                  Profile.e_phase =
                    Option.value ~default:"?" (Json.str_member "phase" m);
                  e_meth;
                  e_time_s = num "time_s" m;
                  e_fuel = int "fuel" m;
                  e_visits = int "visits" m;
                  e_facts = int "facts" m;
                })
              (Json.str_member "method" m)
          in
          let waste m =
            Option.map
              (fun w_scope ->
                {
                  Profile.w_scope;
                  w_touched = int "touched_methods" m;
                  w_contributing = int "contributing_methods" m;
                })
              (Json.str_member "scope" m)
          in
          let phase m =
            Option.map
              (fun name -> (name, num "cum_s" m, num "self_s" m))
              (Json.str_member "phase" m)
          in
          Ok
            ( {
                Profile.sn_entries = List.filter_map entry rows;
                sn_wastes = rows_of "waste" waste;
              },
              rows_of "phases" phase ))

let read_profile = read_artifact profile_of_json

(* The one profile view, for [--profile] after a run and for [stats
   --profile] over the artifact: the per-phase rollup, the top 20
   (phase, method) rows by self time, and one waste row per app.  The
   cum column is the method's total across all phases, so a method split
   between the slicer and the interpreter still reads as one hot
   method.  It prints only what [profile_json] writes, so the view of a
   decoded artifact is the live run's view byte for byte. *)
let pp_profile fmt ((sn : Profile.snapshot), phases) =
  (* Phase rows line their self and cum columns up with the method
     rows'. *)
  Fmt.pf fmt "%-73s %10s %10s@\n" "phase" "self (ms)" "cum (ms)";
  List.iter
    (fun (name, cum_s, self_s) ->
      Fmt.pf fmt "%-73s %10.3f %10.3f@\n" name (1e3 *. self_s) (1e3 *. cum_s))
    phases;
  let method_total : (string, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (e : Profile.entry) ->
      Hashtbl.replace method_total e.Profile.e_meth
        (e.Profile.e_time_s
        +. Option.value ~default:0.0
             (Hashtbl.find_opt method_total e.Profile.e_meth)))
    sn.Profile.sn_entries;
  let top =
    List.stable_sort
      (fun (a : Profile.entry) (b : Profile.entry) ->
        compare b.Profile.e_time_s a.Profile.e_time_s)
      sn.Profile.sn_entries
  in
  Fmt.pf fmt "%-52s %-20s %10s %10s %10s %10s %8s@\n" "method" "phase"
    "self (ms)" "cum (ms)" "fuel" "visits" "facts";
  List.iter
    (fun (e : Profile.entry) ->
      Fmt.pf fmt "%-52s %-20s %10.3f %10.3f %10d %10d %8d@\n" e.Profile.e_meth
        e.Profile.e_phase
        (1e3 *. e.Profile.e_time_s)
        (1e3 *. Hashtbl.find method_total e.Profile.e_meth)
        e.Profile.e_fuel e.Profile.e_visits e.Profile.e_facts)
    (List.filteri (fun i _ -> i < 20) top);
  List.iter
    (fun (w : Profile.waste) ->
      Fmt.pf fmt "waste[%s]: %d methods touched, %d contributing, ratio %.3f@\n"
        w.Profile.w_scope w.Profile.w_touched w.Profile.w_contributing
        (Profile.waste_ratio w))
    sn.Profile.sn_wastes
