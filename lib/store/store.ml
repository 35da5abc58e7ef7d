(* Content-addressed result cache.

   The address of an analysis result is a digest over everything that
   determines it: the app content (the textual Limple program is the
   canonical serialization — the printer/parser round-trip guarantees it
   captures the whole program), the analysis configuration fingerprint,
   and a bumpable implementation version.  Any change to any of the
   three moves the address, so stale entries are never *invalidated*,
   only orphaned — the cache needs no eviction protocol to stay
   correct. *)

module Ir = Extr_ir.Types
module Pp = Extr_ir.Pp
module Apk = Extr_apk.Apk
module Export = Extr_telemetry.Export
module Metrics = Extr_telemetry.Metrics
module Fault = Extr_resilience.Fault

let src = Logs.Src.create "extractocol.store" ~doc:"Content-addressed result cache"

module Log = (val Logs.src_log src : Logs.LOG)

(* Bump on any change that alters the pipeline's output for an unchanged
   input (the report JSON shape counts: cached entries are served
   verbatim). *)
let analysis_version = 1

type key = string

(* The digested text is a header, one field per line, then the program
   as {!Pp} prints it:

     version=<n>
     config=<config>
     manifest=<package>|<label>|<activity>,<activity>,...
     res=<id>:<string>          (one line per resource)

   Header fields are percent-encoded ("%0A") wherever they contain '%',
   a newline or one of their own separators, so two different headers
   never print alike.  No corpus field contains '%' or a newline, and
   the only ',' is in a label, where it is no separator: the encoding
   left every existing key where it was.  An empty activity name prints
   as a lone '%', which no encoded name can be, so [""] and [] differ. *)
let add_escaped buf ~seps s =
  let special c = c = '%' || c = '\n' || String.contains seps c in
  if not (String.exists special s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        if special c then begin
          let hex = "0123456789ABCDEF" in
          Buffer.add_char buf '%';
          Buffer.add_char buf hex.[Char.code c lsr 4];
          Buffer.add_char buf hex.[Char.code c land 15]
        end
        else Buffer.add_char buf c)
      s

(* One buffer, reused by every call: a fresh one per app would be a
   large allocation (programs print to tens of kilobytes) made once per
   app of every corpus run, cache hit or not. *)
let key_buf = Buffer.create 65536

let key ?(version = analysis_version) ~config (apk : Apk.t) : key =
  let buf = key_buf in
  Buffer.clear buf;
  let line name add =
    Buffer.add_string buf name;
    Buffer.add_char buf '=';
    add ();
    Buffer.add_char buf '\n'
  in
  line "version" (fun () -> Buffer.add_string buf (Int.to_string version));
  line "config" (fun () -> add_escaped buf ~seps:"" config);
  let mf = apk.Apk.manifest in
  line "manifest" (fun () ->
      add_escaped buf ~seps:"|" mf.Apk.mf_package;
      Buffer.add_char buf '|';
      add_escaped buf ~seps:"|" mf.Apk.mf_label;
      Buffer.add_char buf '|';
      List.iteri
        (fun i a ->
          if i > 0 then Buffer.add_char buf ',';
          if a = "" then Buffer.add_char buf '%'
          else add_escaped buf ~seps:"|," a)
        mf.Apk.mf_activities);
  List.iter
    (fun (id, s) ->
      line "res" (fun () ->
          Buffer.add_string buf (Int.to_string id);
          Buffer.add_char buf ':';
          add_escaped buf ~seps:"" s))
    apk.Apk.resources;
  Pp.add_program buf apk.Apk.program;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let key_to_string k = k

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let key_of_string s =
  if String.length s = 32 && String.for_all is_hex s then Some s else None

type t = { st_dir : string }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end

let m_temps_swept =
  Metrics.counter ~help:"orphaned temp files removed on cache open"
    "cache.temps.swept"

let open_ ~dir () =
  mkdir_p dir;
  if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"));
  (* A writer SIGKILLed between temp and rename leaves an orphan; the
     cache directory is the long-lived artifact directory those
     accumulate in, so opening it (runner startup, [merge --cache-out])
     is the natural GC point. *)
  let swept = Export.sweep_temps ~dir () in
  if swept > 0 then begin
    if Metrics.is_enabled Metrics.default then
      Metrics.incr ~by:swept m_temps_swept;
    Log.info (fun m -> m "%s: swept %d orphaned temp file(s)" dir swept)
  end;
  { st_dir = dir }

let dir t = t.st_dir

let entry_path dir k = Filename.concat dir (k ^ ".json")

let m_hits =
  Metrics.counter ~help:"result-cache lookups that found an entry" "cache.hits"

let m_misses =
  Metrics.counter ~help:"result-cache lookups that found nothing"
    "cache.misses"

let m_corrupt =
  Metrics.counter
    ~help:"cache entries that failed their content digest (served as misses)"
    "cache.corrupt"

(* ------------------------------------------------------------------ *)
(* Entry integrity                                                    *)
(* ------------------------------------------------------------------ *)

(* Entries are sealed with a one-line header ["%EXTR1 <md5hex>\n"]
   covering the payload, verified on every read.  A missing header or a
   mismatch — bit rot, a torn write from a lying filesystem — makes the
   entry a miss (plus a warning and the cache.corrupt counter), never a
   wrong answer: the app simply re-runs and the fresh store heals the
   entry. *)

let magic = "%EXTR1 "
let header_len = String.length magic + 32 + 1  (* digest hex + '\n' *)

let seal contents = magic ^ Digest.to_hex (Digest.string contents) ^ "\n" ^ contents

let decode raw =
  let n = String.length raw in
  if not (String.starts_with ~prefix:magic raw) then
    Result.Error "missing integrity header"
  else if n < header_len || raw.[header_len - 1] <> '\n' then
    Result.Error "malformed integrity header"
  else
    let digest = String.sub raw (String.length magic) 32 in
    let payload = String.sub raw header_len (n - header_len) in
    if String.for_all is_hex digest
       && Digest.to_hex (Digest.string payload) = digest
    then Result.Ok payload
    else Result.Error "content digest mismatch"

let flip_byte s =
  if s = "" then s
  else begin
    let b = Bytes.of_string s in
    let i = Bytes.length b - 1 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    Bytes.to_string b
  end

type entry = Absent | Corrupt of string | Payload of string

(* The one reader of an entry file.  [tamper] sees the raw bytes before
   the seal is checked: the store.read fault site's bit flip. *)
let read_file ?(tamper = Fun.id) path =
  if not (Sys.file_exists path) then Absent
  else
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error msg -> Corrupt msg
    | raw -> (
        match decode (tamper raw) with
        | Result.Ok payload -> Payload payload
        | Result.Error reason -> Corrupt reason)

let read_entry ~dir k = read_file (entry_path dir k)

let find t k =
  let path = entry_path t.st_dir k in
  let entry =
    match Fault.fire "store.read" with
    | Some "miss" -> Absent
    | Some "bitflip" -> read_file ~tamper:flip_byte path
    | Some _ | None -> read_file path
  in
  let hit =
    match entry with
    | Payload payload -> Some payload
    | Absent -> None
    | Corrupt reason ->
        Log.warn (fun m ->
            m "corrupt cache entry %s (%s); treating as a miss" path reason);
        if Metrics.is_enabled Metrics.default then Metrics.incr m_corrupt;
        None
  in
  if Metrics.is_enabled Metrics.default then
    Metrics.incr (match hit with Some _ -> m_hits | None -> m_misses);
  hit

let store t k contents =
  let data = seal contents in
  let data =
    match Fault.fire "store.write" with
    | Some "bitflip" -> Some (flip_byte data)
    | Some "drop" -> None
    | Some _ | None -> Some data
  in
  match data with
  | Some data -> Export.write_file (entry_path t.st_dir k) data
  | None -> ()

(* The files [store] writes, [<key>.json]: write temps are dot-prefixed
   and anything else in the directory is not an entry. *)
let entries ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | names ->
      Some
        (List.filter_map
           (fun name ->
             Option.bind (Filename.chop_suffix_opt ~suffix:".json" name)
               key_of_string)
           (List.sort compare (Array.to_list names)))

(* Offline integrity audit for [stats --verify]: decode every entry in
   a cache directory without serving it. *)
let audit ~dir =
  let keys = Option.value ~default:[] (entries ~dir) in
  ( List.length keys,
    List.filter_map
      (fun k ->
        match read_entry ~dir k with
        | Corrupt reason -> Some (k ^ ".json", reason)
        | Absent | Payload _ -> None)
      keys )
