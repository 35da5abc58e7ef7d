(* Write-ahead journal: true append-only JSONL on an open channel.
   [write] hands a record to the kernel, [sync] makes everything written
   so far durable (see the .mli for the durability contract). *)

module Json = Extr_httpmodel.Json
module Clock = Extr_telemetry.Clock
module Metrics = Extr_telemetry.Metrics

let src = Logs.Src.create "extractocol.journal" ~doc:"Corpus-run write-ahead journal"

module Log = (val Logs.src_log src : Logs.LOG)

type event =
  | Started of { ev_app : string; ev_key : string; ev_attempt : int }
  | Retried of { ev_app : string; ev_attempt : int; ev_reason : string }
  | Crashed of { ev_app : string; ev_phase : string; ev_exn : string }
  | Finished of {
      ev_app : string;
      ev_key : string;
      ev_status : string;
      ev_cached : bool;
      ev_attempts : int;
      ev_txs : int;
    }

type t = {
  jn_path : string;
  jn_config : string;
  jn_oc : out_channel;  (* positioned at end-of-file, after a '\n' *)
  jn_clock : Clock.t;  (* stamps each record; injectable for tests *)
}

(* ------------------------------------------------------------------ *)
(* Serialization                                                      *)
(* ------------------------------------------------------------------ *)

let json_of_event = function
  | Started e ->
      Json.Obj
        [
          ("event", Json.Str "started");
          ("app", Json.Str e.ev_app);
          ("key", Json.Str e.ev_key);
          ("attempt", Json.Int e.ev_attempt);
        ]
  | Retried e ->
      Json.Obj
        [
          ("event", Json.Str "retried");
          ("app", Json.Str e.ev_app);
          ("attempt", Json.Int e.ev_attempt);
          ("reason", Json.Str e.ev_reason);
        ]
  | Crashed e ->
      Json.Obj
        [
          ("event", Json.Str "crashed");
          ("app", Json.Str e.ev_app);
          ("phase", Json.Str e.ev_phase);
          ("exn", Json.Str e.ev_exn);
        ]
  | Finished e ->
      Json.Obj
        [
          ("event", Json.Str "finished");
          ("app", Json.Str e.ev_app);
          ("key", Json.Str e.ev_key);
          ("status", Json.Str e.ev_status);
          ("cached", Json.Bool e.ev_cached);
          ("attempts", Json.Int e.ev_attempts);
          ("txs", Json.Int e.ev_txs);
        ]

let event_of_json j =
  let ( let* ) = Option.bind in
  let str = Json.str_member and int = Json.int_member in
  let bool = Json.bool_member in
  match str "event" j with
  | Some "started" ->
      let* ev_app = str "app" j in
      let* ev_key = str "key" j in
      let* ev_attempt = int "attempt" j in
      Some (Started { ev_app; ev_key; ev_attempt })
  | Some "retried" ->
      let* ev_app = str "app" j in
      let* ev_attempt = int "attempt" j in
      let* ev_reason = str "reason" j in
      Some (Retried { ev_app; ev_attempt; ev_reason })
  | Some "crashed" ->
      let* ev_app = str "app" j in
      let* ev_phase = str "phase" j in
      let* ev_exn = str "exn" j in
      Some (Crashed { ev_app; ev_phase; ev_exn })
  | Some "finished" ->
      let* ev_app = str "app" j in
      let* ev_key = str "key" j in
      let* ev_status = str "status" j in
      let* ev_cached = bool "cached" j in
      let* ev_attempts = int "attempts" j in
      let* ev_txs = int "txs" j in
      Some (Finished { ev_app; ev_key; ev_status; ev_cached; ev_attempts; ev_txs })
  | Some _ | None -> None

(* Each record is stamped with the journal clock when written, so an
   offline reader ([read_lenient], the stats subcommand) can reconstruct
   wall time per app and the run's ETA from the file alone.  A record
   without its stamp is not one a writer produced.  [merge] carries
   stamps over from its source journals. *)
let record_of_json j =
  Option.bind (Json.num_member "t" j) (fun stamp ->
      Option.map (fun ev -> (stamp, ev)) (event_of_json j))

let with_stamp stamp json =
  match (stamp, json) with
  | Some t, Json.Obj fields -> Json.Obj (fields @ [ ("t", Json.Float t) ])
  | _, other -> other

let header config =
  Json.Obj [ ("event", Json.Str "run-started"); ("config", Json.Str config) ]

(* ------------------------------------------------------------------ *)
(* Record integrity                                                   *)
(* ------------------------------------------------------------------ *)

(* Every line is sealed with a short content checksum appended as a
   final "c" member: {...,"t":...} becomes {...,"t":...,"c":"xxxxxxxx"}
   where the digest covers the line bytes before sealing.  The scheme
   is purely textual — sealing and verification never round-trip
   through the Json value model, so float reprinting can neither weaken
   nor break it. *)

let checksum s = String.sub (Digest.to_hex (Digest.string s)) 0 8

let seal_line s =
  let n = String.length s in
  if n < 2 || s.[n - 1] <> '}' then s
  else String.sub s 0 (n - 1) ^ ",\"c\":\"" ^ checksum s ^ "\"}"

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

(* The seal suffix is [,"c":"XXXXXXXX"}] — 16 bytes.  The payload of a
   line that ends in it and verifies; [None] for every other line. *)
let unseal line =
  let n = String.length line in
  let suffix = 16 in
  if
    n > suffix
    && String.sub line (n - suffix) 6 = ",\"c\":\""
    && line.[n - 2] = '"'
    && line.[n - 1] = '}'
  then
    let digest = String.sub line (n - suffix + 6) 8 in
    let payload = String.sub line 0 (n - suffix) ^ "}" in
    if String.for_all is_hex digest && checksum payload = digest then
      Some payload
    else None
  else None

type anomaly = { an_line : int; an_reason : string }

let pp_anomaly fmt a = Fmt.pf fmt "line %d: %s" a.an_line a.an_reason

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

(* The header's fsync is not counted, so the counter adds up across
   the shards of a sequential run like the apps it covers. *)
let m_fsyncs =
  Metrics.counter
    ~help:
      "journal fsyncs of event records: one per app sequentially, one per \
       pool commit"
    "journal.fsyncs"

(* Push the kernel's copy of everything written so far to the disk.
   fsync can fail on exotic filesystems (EINVAL on pipes in tests);
   losing durability there beats aborting the run. *)
let fsync oc =
  try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()

let sync t =
  Metrics.incr m_fsyncs;
  fsync t.jn_oc

(* Hand a record to the kernel: a process killed after this loses
   nothing, only a power loss before the next [sync] can. *)
let write_line oc line =
  Out_channel.output_string oc line;
  Out_channel.output_char oc '\n';
  Out_channel.flush oc

(* The one serialization of each line, shared by the live writer and
   the merge subcommand, so a unioned journal reads back exactly like
   one the runner wrote. *)
let header_line ?stamp ~config () =
  seal_line (Json.to_string (with_stamp stamp (header config)))

let line_of_event ~stamp ev =
  seal_line (Json.to_string (with_stamp (Some stamp) (json_of_event ev)))

let create ?(clock = Clock.wall) ~path ~config () =
  let oc = Out_channel.open_text path in
  let t = { jn_path = path; jn_config = config; jn_oc = oc; jn_clock = clock } in
  write_line oc (header_line ~stamp:(clock ()) ~config ());
  fsync oc;
  t

let split_lines s = String.split_on_char '\n' s

(* Reposition [path] for appending after a possibly torn tail: keep
   everything up to and including the last '\n', drop the partial line
   after it, and hand back a channel at that offset. *)
let reopen_for_append path contents =
  let keep, need_nl =
    match String.rindex_opt contents '\n' with
    | Some i -> (i + 1, false)
    | None -> (String.length contents, String.length contents > 0)
  in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd keep;
  ignore (Unix.lseek fd keep Unix.SEEK_SET);
  let oc = Unix.out_channel_of_descr fd in
  if need_nl then Out_channel.output_char oc '\n';
  oc

(* Header line + parsed (timestamp, event) records of [path]'s complete
   lines; shared by the resuming [load] and the read-only [read_lenient].
   [Ok (None, [], [])] is a zero-byte journal: a run died between
   opening the file and writing the header (the stale-lock shape) —
   offline readers classify it as an empty run, not an error.

   Corruption never raises and never silently passes: a mid-file record
   without a valid seal, or whose sealed payload is not a stamped event,
   is dropped AND reported as an anomaly, so callers can degrade
   ([merge]), warn ([--resume]) or audit ([stats --verify]).  The single
   exception is a torn tail — a final line the writer never finished
   (no trailing newline): that is the documented benign kill shape,
   dropped silently. *)
let parse_journal ~path contents =
  let len = String.length contents in
  let ends_nl = len = 0 || contents.[len - 1] = '\n' in
  let raw = split_lines contents in
  let nlines = List.length raw in
  let numbered =
    List.filter (fun (_, l) -> String.trim l <> "")
      (List.mapi (fun i l -> (i + 1, l)) raw)
  in
  match numbered with
  | [] -> Ok (None, [], [])
  | (_, hd) :: tl -> (
      let torn_tail ln = (not ends_nl) && ln = nlines in
      match
        Option.bind (unseal hd) (fun p ->
            Option.bind (Json.of_string_opt p) (Json.str_member "config"))
      with
      | None -> Error (path ^ ": journal header missing, unsealed or corrupt")
      | Some c ->
          let anomalies = ref [] in
          let note ln reason =
            if not (torn_tail ln) then begin
              Log.warn (fun m ->
                  m "%s: dropping journal line %d: %s" path ln reason);
              anomalies := { an_line = ln; an_reason = reason } :: !anomalies
            end;
            None
          in
          let records =
            List.filter_map
              (fun (ln, line) ->
                match unseal line with
                | None -> note ln "record is unsealed or fails its checksum"
                | Some p -> (
                    match Option.bind (Json.of_string_opt p) record_of_json with
                    | Some record -> Some record
                    | None -> note ln "unrecognized record"))
              tl
          in
          Ok (Some c, records, List.rev !anomalies))

let read_lenient ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> parse_journal ~path contents

let load ?(clock = Clock.wall) ~path ~config () =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
      match parse_journal ~path contents with
      | Error msg -> Error msg
      | Ok (None, _, _) -> Error (path ^ ": empty journal (no header)")
      | Ok (Some c, _, _) when c <> config ->
          Error
            (Fmt.str
               "%s: journal was written under a different configuration \
                (%s, current run %s); results would not match — remove \
                the journal or rerun without --resume"
               path c config)
      | Ok (Some _, timestamped, anomalies) -> (
          match reopen_for_append path contents with
          | exception Unix.Unix_error (e, _, _) ->
              Error (path ^ ": " ^ Unix.error_message e)
          | oc ->
              Ok
                ( { jn_path = path; jn_config = config; jn_oc = oc;
                    jn_clock = clock },
                  timestamped,
                  anomalies )))

let write t ev =
  let at = t.jn_clock () in
  let line = line_of_event ~stamp:at ev in
  (match Fault.fire "journal.append" with
  | Some "torn" ->
      (* Half a record and no newline: once later records land after
         it, the tear sits mid-file glued to the next record — the
         checksum is what catches it. *)
      Out_channel.output_string t.jn_oc
        (String.sub line 0 (String.length line / 2));
      Out_channel.flush t.jn_oc
  | Some "bitflip" ->
      let b = Bytes.of_string line in
      let i = Bytes.length b / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      write_line t.jn_oc (Bytes.to_string b)
  | Some "drop" -> ()
  | Some _ | None -> write_line t.jn_oc line);
  at

let append t ev =
  ignore (write t ev : float);
  sync t

let path t = t.jn_path

let event_app = function
  | Started e -> e.ev_app
  | Retried e -> e.ev_app
  | Crashed e -> e.ev_app
  | Finished e -> e.ev_app

type outcome = {
  oc_app : string;
  oc_finished : (float * event) option;
  oc_crashed : (float * event) option;
  oc_started : float option;
}

(* One pass in record order.  A Started after a Finished means the app
   was being re-run when the journal stopped, so it clears the Finished:
   the app is in flight again.  The crash survives it — the quarantine
   that follows a re-run's crash replays the latest one. *)
let outcomes records =
  let by_app = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun ((stamp, ev) as record) ->
      let app = event_app ev in
      let o =
        match Hashtbl.find_opt by_app app with
        | Some o -> o
        | None ->
            order := app :: !order;
            { oc_app = app; oc_finished = None; oc_crashed = None;
              oc_started = None }
      in
      let o =
        match ev with
        | Started _ ->
            let oc_started =
              if o.oc_started = None then Some stamp else o.oc_started
            in
            { o with oc_finished = None; oc_started }
        | Finished _ -> { o with oc_finished = Some record }
        | Crashed _ -> { o with oc_crashed = Some record }
        | Retried _ -> o
      in
      Hashtbl.replace by_app app o)
    records;
  List.rev_map (Hashtbl.find by_app) !order

let pp_event fmt = function
  | Started e -> Fmt.pf fmt "started %s (attempt %d)" e.ev_app e.ev_attempt
  | Retried e ->
      Fmt.pf fmt "retried %s (attempt %d, %s)" e.ev_app e.ev_attempt e.ev_reason
  | Crashed e -> Fmt.pf fmt "crashed %s in %s: %s" e.ev_app e.ev_phase e.ev_exn
  | Finished e ->
      Fmt.pf fmt "finished %s (%s%s, %d attempt%s, %d txs)" e.ev_app e.ev_status
        (if e.ev_cached then ", cached" else "")
        e.ev_attempts
        (if e.ev_attempts = 1 then "" else "s")
        e.ev_txs
