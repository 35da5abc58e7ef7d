(* Offline union of sharded --all artifacts: [extractocol merge].

   N shard runs (each `--shard K/N` over the same corpus and
   configuration) leave N journals and N (or fewer, when shared) cache
   directories.  This module folds them back into the artifacts one
   unsharded run would have produced: a report envelope byte-identical
   to `--all --jobs 1`, a merged journal the stats/merge readers accept
   like a runner-written one, the unioned cache entries, and a unioned
   metrics snapshot.

   Robustness is the design driver, not a bolt-on:

   - Idempotent: per-app conflicts (overlapping shards, duplicated
     work, re-merging a merged journal) resolve newest-finished-wins by
     journal stamp, ties broken by input order — a deterministic,
     associative-in-practice rule, so merge(merge(x)) = merge(x).
   - Corruption never aborts: an unreadable journal, a torn tail (the
     journal parser already drops it) or a truncated/corrupt cache
     entry becomes a degradation record in the envelope; the merge
     completes with everything else.
   - Missing work is explicit: shards declared by the journals' (or
     [expect_shards]') K/N identities but absent, and corpus apps no
     surviving journal accounts for, are listed in the envelope and
     reflected in the exit code — never a silent gap.
   - Reading is read-only: inputs are never opened for writing, so
     merging artifacts of a still-running shard is safe (it just sees a
     prefix).  Writing the outputs is the caller's job (the CLI), via
     the atomic [Export.write_file] discipline. *)

module Journal = Extr_resilience.Journal
module Json = Extr_httpmodel.Json
module Corpus = Extr_corpus.Corpus
module Metrics = Extr_telemetry.Metrics
module Export = Extr_telemetry.Export
module Store = Extr_store.Store

let src = Logs.Src.create "extractocol.merge" ~doc:"Shard artifact merge"

module Log = (val Logs.src_log src : Logs.LOG)

type degradation = { md_app : string; md_reason : string; md_detail : string }

type t = {
  mg_config : string;
  mg_run : Runner.run;
  mg_outcomes : Journal.outcome list;  (* of each merged app, corpus order *)
  mg_missing_shards : int list;
  mg_missing_apps : string list;
  mg_degradations : degradation list;
  mg_cache : (string * string) list;
  mg_expected : int;
}

(* The journal fingerprint of shard K/N is the base configuration
   fingerprint plus ";shard=K/N" (Runner.journal_fingerprint); strip it
   to recover the identity cache keys and the merged envelope use.  The
   suffix is only recognized in the exact trailing shape the runner
   writes, so a base fingerprint never loses legitimate content. *)
let strip_shard config =
  let marker = ";shard=" in
  let mlen = String.length marker in
  let clen = String.length config in
  let parse_kn s =
    match String.index_opt s '/' with
    | None -> None
    | Some j -> (
        match
          ( int_of_string_opt (String.sub s 0 j),
            int_of_string_opt (String.sub s (j + 1) (String.length s - j - 1))
          )
        with
        | Some k, Some n when k >= 1 && k <= n -> Some (k, n)
        | _ -> None)
  in
  let rec find i =
    if i < 0 then None
    else if String.sub config i mlen = marker then Some i
    else find (i - 1)
  in
  match find (clen - mlen) with
  | None -> (config, None)
  | Some i -> (
      match parse_kn (String.sub config (i + mlen) (clen - i - mlen)) with
      | Some kn -> (String.sub config 0 i, Some kn)
      | None -> (config, None))

type journal =
  | Unreadable of string
  | Empty
  | Header of {
      jh_config : string;
      jh_base : string;
      jh_shard : (int * int) option;
      jh_anomalies : Journal.anomaly list;
    }

type shard_set = {
  ss_journals : (string * journal) list;
  ss_base : (string option, string) result;
  ss_records : (float * Journal.event) list;
}

(* Pool a journal set's records in stamp order, ties kept in input
   order.  The per-app outcome fold over them is then
   newest-finished-wins — later stamp beats earlier, ties go to the
   later input — a total, deterministic rule, which is what makes
   re-merging (every stamp equal to itself, same input order) a fixed
   point.  The set's base is the first readable header's; a header that
   names another one makes it an error. *)
let read_shard_set paths =
  let read path =
    match Journal.read_lenient ~path with
    | Error msg -> ((path, Unreadable msg), [])
    | Ok (None, _, _) -> ((path, Empty), [])
    | Ok (Some jh_config, records, jh_anomalies) ->
        let jh_base, jh_shard = strip_shard jh_config in
        ((path, Header { jh_config; jh_base; jh_shard; jh_anomalies }), records)
  in
  let ss_journals, records = List.split (List.map read paths) in
  let agree base (path, journal) =
    match (base, journal) with
    | Ok (Some b), Header h when h.jh_base <> b ->
        Error
          (Printf.sprintf
             "%s: journal configuration %s does not match the other \
              journals' (%s)"
             path h.jh_base b)
    | Ok None, Header h -> Ok (Some h.jh_base)
    | base, _ -> base
  in
  {
    ss_journals;
    ss_base = List.fold_left agree (Ok None) ss_journals;
    ss_records =
      List.stable_sort
        (fun (a, _) (b, _) -> Float.compare a b)
        (List.concat records);
  }

let merge ~(journals : string list) ?(cache_dirs = []) ?expect_shards () :
    (t, string) result =
  let set = read_shard_set journals in
  match (expect_shards, set.ss_base) with
  | Some n, _ when n < 1 ->
      Error (Printf.sprintf "--expect-shards %d: N must be positive" n)
  | _, Error msg -> Error msg
  | _, Ok None ->
      Error
        (String.concat "; "
           ("no journal has a readable header, so nothing names the set's \
             configuration and corpus"
           :: List.filter_map
                (function _, Unreadable msg -> Some msg | _ -> None)
                set.ss_journals))
  | _, Ok (Some base) ->
  let degradations = ref [] in
  let degrade md_app md_reason md_detail =
    Log.warn (fun m -> m "%s: %s (%s)" md_reason md_detail md_app);
    degradations := { md_app; md_reason; md_detail } :: !degradations
  in
  (* An unreadable or headerless-but-nonempty journal is quarantined; a
     zero-byte one (a shard that died between open and header — the
     stale-lock shape) is an empty shard.  Corrupt records are dropped,
     not trusted: the affected app either has a healthy record elsewhere
     in the shard set or surfaces as missing — both are honest shapes. *)
  let shards_seen = ref [] in
  let declared_n = ref None in
  List.iter
    (fun (path, journal) ->
      match journal with
      | Unreadable msg -> degrade "" "journal unreadable" (path ^ ": " ^ msg)
      | Empty ->
          Log.info (fun m -> m "%s: empty journal, treating as empty shard" path)
      | Header h ->
          List.iter
            (fun a ->
              degrade "" "journal record dropped"
                (Fmt.str "%s: %a" path Journal.pp_anomaly a))
            h.jh_anomalies;
          Option.iter
            (fun (k, n) ->
              shards_seen := k :: !shards_seen;
              declared_n := Some (max n (Option.value ~default:0 !declared_n)))
            h.jh_shard)
    set.ss_journals;
  let outcomes = Hashtbl.create 64 in
  List.iter
    (fun o -> Hashtbl.replace outcomes o.Journal.oc_app o)
    (Journal.outcomes set.ss_records);
  (* The expected result set: the identities of the corpus the base
     names, in corpus order — the same list every shard computed
     before filtering, so the merged envelope's app order is the
     unsharded run's. *)
  let identified = Runner.identify (Runner.corpus_of_fingerprint base) in
  let cache = ref [] in
  let cache_keys = Hashtbl.create 64 in
  (* The first valid copy of [key] across the cache directories, read
     without opening them.  A report is validated before it is
     trusted: a torn entry (killed mid-write outside the atomic
     discipline, disk trouble) must quarantine, not propagate. *)
  let lookup_report app key =
    let file dir = Filename.concat dir (key ^ ".json") in
    let read dir =
      match Store.key_of_string key with
      | Some k -> Store.read_entry ~dir k
      | None -> Store.Absent
    in
    let rec probe corrupt = function
      | [] ->
          if corrupt = [] then
            degrade app "cache entry missing" (key ^ ".json")
          else
            List.iter
              (fun dir ->
                degrade app "corrupt cache entry quarantined" (file dir))
              (List.rev corrupt);
          None
      | dir :: rest -> (
          match read dir with
          | Store.Absent -> probe corrupt rest
          | Store.Payload data when Runner.inspect_report_json data <> None
            ->
              if not (Hashtbl.mem cache_keys key) then begin
                Hashtbl.replace cache_keys key ();
                cache := (key, data) :: !cache
              end;
              Some data
          | Store.Corrupt reason ->
              Log.warn (fun m ->
                  m "%s: corrupt cache entry (%s)" (file dir) reason);
              probe (dir :: corrupt) rest
          | Store.Payload _ -> probe (dir :: corrupt) rest)
    in
    probe [] cache_dirs
  in
  let missing_apps = ref [] in
  let merged =
    List.filter_map
      (fun ((id, _) : string * Corpus.entry) ->
        let restored o =
          Option.map
            (fun r -> (o, r))
            (Runner.restore ~find:(lookup_report id) o)
        in
        match Option.bind (Hashtbl.find_opt outcomes id) restored with
        | None ->
            missing_apps := id :: !missing_apps;
            None
        | some -> some)
      identified
  in
  let results = List.map snd merged in
  (* Shard coverage: [expect_shards] is authoritative when given;
     otherwise whatever N the surviving journals declared.  Journals
     with no shard suffix (an unsharded run, a merged journal)
     declare nothing, which is what makes merging a merged journal
     coverage-clean. *)
  let missing_shards =
    match (expect_shards, !declared_n) with
    | None, None -> []
    | Some n, _ | None, Some n ->
        List.filter
          (fun k -> not (List.mem k !shards_seen))
          (List.init n (fun i -> i + 1))
  in
  let run =
    {
      Runner.rn_results = results;
      rn_interrupted = false;
      rn_quarantined =
        List.filter_map
          (fun (a : Runner.app_result) ->
            if a.Runner.ar_status = Runner.Quarantined then
              Some a.Runner.ar_app
            else None)
          results;
      rn_worker_spans = [];
    }
  in
  Ok
    {
      mg_config = base;
      mg_run = run;
      mg_outcomes = List.map fst merged;
      mg_missing_shards = missing_shards;
      mg_missing_apps = List.rev !missing_apps;
      mg_degradations = List.rev !degradations;
      mg_cache = List.rev !cache;
      mg_expected = List.length identified;
    }

(* Exit contract (documented in the CLI man page): the code reflects the
   health of the MERGE, not of the merged run — a cleanly merged corpus
   full of degraded apps still exits 0 here (the envelope carries the
   app statuses; --all already reported them live). *)
let exit_code t =
  if t.mg_missing_shards <> [] || t.mg_missing_apps <> [] then 4
  else if t.mg_degradations <> [] then 3
  else 0

(* ------------------------------------------------------------------ *)
(* Outputs                                                            *)
(* ------------------------------------------------------------------ *)

let json_str_list l =
  "[" ^ String.concat "," (List.map (fun s -> "\"" ^ Json.escape_string s ^ "\"") l) ^ "]"

type members = {
  mm_missing_shards : int list;
  mm_missing_apps : string list;
  mm_degradations : degradation list;
}

let report_json t =
  let extra =
    (if t.mg_missing_shards = [] then []
     else
       [
         ( "missing_shards",
           "["
           ^ String.concat "," (List.map string_of_int t.mg_missing_shards)
           ^ "]" );
       ])
    @ (if t.mg_missing_apps = [] then []
       else [ ("missing_apps", json_str_list t.mg_missing_apps) ])
    @
    if t.mg_degradations = [] then []
    else
      [
        ( "merge_degradations",
          "["
          ^ String.concat ","
              (List.map
                 (fun d ->
                   Printf.sprintf
                     "{\"app\":\"%s\",\"reason\":\"%s\",\"detail\":\"%s\"}"
                     (Json.escape_string d.md_app)
                     (Json.escape_string d.md_reason)
                     (Json.escape_string d.md_detail))
                 t.mg_degradations)
          ^ "]" );
      ]
  in
  Runner.report_json ~extra ~config:t.mg_config t.mg_run

let envelope_of_json contents =
  Result.map
    (fun (en : Runner.envelope) ->
      let items key decode =
        match List.assoc_opt key en.Runner.en_extra with
        | Some (Json.List l) -> List.filter_map decode l
        | _ -> []
      in
      let degradation d =
        match
          ( Json.str_member "app" d,
            Json.str_member "reason" d,
            Json.str_member "detail" d )
        with
        | Some md_app, Some md_reason, Some md_detail ->
            Some { md_app; md_reason; md_detail }
        | _ -> None
      in
      ( en,
        {
          mm_missing_shards =
            items "missing_shards" (function Json.Int k -> Some k | _ -> None);
          mm_missing_apps =
            items "missing_apps" (function Json.Str a -> Some a | _ -> None);
          mm_degradations = items "merge_degradations" degradation;
        } ))
    (Runner.envelope_of_json contents)

(* The merged journal: a header under the BASE fingerprint (no shard
   suffix — the merged artifact covers the whole corpus) followed by one
   Crashed record per quarantined app and one Finished record per app,
   in corpus order, every stamp carried over from the winning shard
   record.  The result reads back exactly like a runner-written journal
   — stats accepts it, and a further merge over it reproduces the same
   envelope (the idempotency the e2e shard scenario enforces). *)
let journal_contents t =
  let buf = Buffer.create 4096 in
  let add (stamp, ev) =
    Buffer.add_string buf (Journal.line_of_event ~stamp ev);
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf (Journal.header_line ~config:t.mg_config ());
  Buffer.add_char buf '\n';
  List.iter
    (fun (o : Journal.outcome) ->
      match o.Journal.oc_finished with
      | Some ((_, Journal.Finished f) as finished) ->
          (* Replay the crash before its Finished record, as the live
             runner journals them, so --resume and stats recover the
             crash phase/exn from the merged journal too. *)
          if f.ev_status = Runner.status_name Runner.Quarantined then
            Option.iter add o.Journal.oc_crashed;
          add finished
      | _ -> ())
    t.mg_outcomes;
  Buffer.contents buf

(* Union of the shards' metrics snapshots: decode each one and fold it
   through Metrics.merge_samples — the same commutative union the pool
   coordinator applies to worker deltas, so N shard snapshots merge
   exactly like N workers' shipments. *)
let merge_metrics paths : (string, string) result =
  let registry = Metrics.create ~enabled:true () in
  let rec fold = function
    | [] -> Ok (Export.metrics_json registry)
    | path :: rest -> (
        match Export.read_metrics path with
        | Error msg -> Error msg
        | Ok samples ->
            Metrics.merge_samples registry samples;
            fold rest)
  in
  fold paths
