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
module Resilience = Extr_resilience.Resilience
module Barrier = Resilience.Barrier
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
  mg_finished : (float option * Journal.event) list;
      (* winning Finished record per app, stamps preserved, corpus order *)
  mg_crashed : (string * (float option * Journal.event)) list;
      (* winning Crashed record of each quarantined app *)
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

(* Newest-finished-wins: later stamp beats earlier, a missing stamp
   loses to any stamp, and exact ties go to the later input — the rule
   is total and deterministic, which is what makes re-merging (every
   stamp equal to itself, same input order) a fixed point. *)
let wins ~cand:(s_new, i_new) ~incumbent:(s_old, i_old) =
  let v = function Some s -> s | None -> neg_infinity in
  if v s_new > v s_old then true
  else if v s_new < v s_old then false
  else (i_new : int) >= i_old

type cache_read = Cache_absent | Cache_corrupt | Cache_data of string

let read_cache_entry dir key =
  let path = Filename.concat dir (key ^ ".json") in
  if Sys.file_exists path then
    try
      let raw = In_channel.with_open_text path In_channel.input_all in
      (* Verify the integrity seal: a corrupt entry is a miss, exactly
         as [Store.find] treats it, so merge never splices a damaged
         report into the envelope. *)
      match Store.decode raw with
      | Ok payload -> Cache_data payload
      | Error reason ->
          Log.warn (fun m -> m "%s: corrupt cache entry (%s)" path reason);
          Cache_corrupt
    with Sys_error _ -> Cache_absent
  else Cache_absent

let merge ~(options : Runner.options) ~(entries : Corpus.entry list)
    ~(journals : string list) ?(cache_dirs = []) ?expect_shards () :
    (t, string) result =
  match expect_shards with
  | Some n when n < 1 ->
      Error (Printf.sprintf "--expect-shards %d: N must be positive" n)
  | Some _ | None ->
  let base = Runner.config_fingerprint options in
  let degradations = ref [] in
  let degrade md_app md_reason md_detail =
    Log.warn (fun m -> m "%s: %s (%s)" md_reason md_detail md_app);
    degradations := { md_app; md_reason; md_detail } :: !degradations
  in
  (* Fold every journal's records into per-app winners.  An unreadable
     or headerless-but-nonempty journal is quarantined; a zero-byte one
     (a shard that died between open and header — the stale-lock shape)
     is an empty shard.  A journal whose base fingerprint differs is a
     usage error: its results were computed under another configuration
     and must not be mixed in silently. *)
  let best : (string, (float option * int) * Journal.event) Hashtbl.t =
    Hashtbl.create 64
  in
  let crashes : (string, (float option * int) * (string * string)) Hashtbl.t =
    Hashtbl.create 16
  in
  let shards_seen = ref [] in
  let declared_n = ref None in
  let config_error = ref None in
  List.iteri
    (fun idx path ->
      match Journal.read_lenient ~path with
      | Error msg -> degrade "" "journal unreadable" (path ^ ": " ^ msg)
      | Ok (None, _, _) ->
          Log.info (fun m -> m "%s: empty journal, treating as empty shard" path)
      | Ok (Some cfg, events, anomalies) ->
          (* Corrupt records are dropped, not trusted: the affected app
             either has a healthy record elsewhere in the shard set or
             surfaces as missing — both are honest shapes. *)
          List.iter
            (fun a ->
              degrade "" "journal record dropped"
                (Fmt.str "%s: %a" path Journal.pp_anomaly a))
            anomalies;
          let cfg_base, shard = strip_shard cfg in
          if cfg_base <> base then begin
            if !config_error = None then
              config_error :=
                Some
                  (Printf.sprintf
                     "%s: journal was written under a different configuration \
                      (%s, merge expects %s); results would not match"
                     path cfg_base base)
          end
          else begin
            Option.iter
              (fun (k, n) ->
                shards_seen := k :: !shards_seen;
                declared_n :=
                  Some (max n (Option.value ~default:0 !declared_n)))
              shard;
            List.iter
              (fun (stamp, ev) ->
                let consider tbl app v =
                  match Hashtbl.find_opt tbl app with
                  | Some (incumbent, _)
                    when not (wins ~cand:(stamp, idx) ~incumbent) ->
                      ()
                  | _ -> Hashtbl.replace tbl app ((stamp, idx), v)
                in
                match ev with
                | Journal.Finished { ev_app; _ } -> consider best ev_app ev
                | Journal.Crashed { ev_app; ev_phase; ev_exn } ->
                    consider crashes ev_app (ev_phase, ev_exn)
                | Journal.Started _ | Journal.Retried _ -> ())
              events
          end)
    journals;
  match !config_error with
  | Some msg -> Error msg
  | None ->
      (* The expected result set: the full corpus' identities, in corpus
         order — the same list every shard computed before filtering, so
         the merged envelope's app order is the unsharded run's. *)
      let identified = Runner.identify entries in
      let missing_apps = ref [] in
      let cache = ref [] in
      let cache_keys = Hashtbl.create 64 in
      let finished = ref [] in
      let crashed = ref [] in
      let lookup_report app key =
        if key = "" then None
        else
          let corrupt = ref [] in
          let rec probe = function
            | [] ->
                List.iter
                  (fun dir ->
                    degrade app "corrupt cache entry quarantined"
                      (Filename.concat dir (key ^ ".json")))
                  (List.rev !corrupt);
                if !corrupt = [] then
                  degrade app "cache entry missing" (key ^ ".json");
                None
            | dir :: rest -> (
                match read_cache_entry dir key with
                | Cache_absent -> probe rest
                | Cache_corrupt ->
                    corrupt := dir :: !corrupt;
                    probe rest
                | Cache_data data -> (
                    (* Validate before trusting: a torn entry (killed
                       mid-write outside the atomic discipline, disk
                       trouble) must quarantine, not propagate. *)
                    match Runner.inspect_report_json data with
                    | Some _ -> Some data
                    | None ->
                        corrupt := dir :: !corrupt;
                        probe rest))
          in
          probe cache_dirs
      in
      let results =
        List.filter_map
          (fun ((id, _) : string * Corpus.entry) ->
            match Hashtbl.find_opt best id with
            | None ->
                missing_apps := id :: !missing_apps;
                None
            | Some
                ( (stamp, _),
                  (Journal.Finished
                     { ev_key; ev_status; ev_cached; ev_attempts; ev_txs; _ }
                   as fev) )
              ->
                let status =
                  match Runner.status_of_name ev_status with
                  | Some s -> s
                  | None -> Runner.Quarantined
                in
                finished := (stamp, fev) :: !finished;
                let crash =
                  match status with
                  | Runner.Quarantined ->
                      let phase, exn_s =
                        match Hashtbl.find_opt crashes id with
                        | Some ((cstamp, _), pe) ->
                            crashed :=
                              ( id,
                                ( cstamp,
                                  Journal.Crashed
                                    {
                                      ev_app = id;
                                      ev_phase = fst pe;
                                      ev_exn = snd pe;
                                    } ) )
                              :: !crashed;
                            pe
                        | None -> ("?", "crash record missing from journal")
                      in
                      Some
                        {
                          Barrier.cr_app = id;
                          cr_exn = exn_s;
                          cr_phase = phase;
                          cr_backtrace = "";
                        }
                  | _ -> None
                in
                let report, degs =
                  match status with
                  | Runner.Quarantined -> (None, [])
                  | _ -> (
                      match lookup_report id ev_key with
                      | None -> (None, [])
                      | Some data ->
                          if not (Hashtbl.mem cache_keys ev_key) then begin
                            Hashtbl.replace cache_keys ev_key ();
                            cache := (ev_key, data) :: !cache
                          end;
                          ( Some data,
                            match Runner.inspect_report_json data with
                            | Some (_, _, ds) -> ds
                            | None -> [] ))
                in
                Some
                  {
                    Runner.ar_app = id;
                    ar_status = status;
                    ar_cached = ev_cached;
                    ar_resumed = false;
                    ar_attempts = ev_attempts;
                    ar_txs = ev_txs;
                    ar_degradations = degs;
                    ar_elapsed_s = 0.0;
                    ar_crash = crash;
                    ar_report_json = report;
                  }
            | Some (_, _) -> None)
          identified
      in
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
          mg_finished = List.rev !finished;
          mg_crashed = List.rev !crashed;
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
  let add ?stamp ev =
    Buffer.add_string buf (Journal.line_of_event ?stamp ev);
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf (Journal.header_line ~config:t.mg_config ());
  Buffer.add_char buf '\n';
  List.iter
    (fun (stamp, ev) ->
      (match ev with
      | Journal.Finished { ev_app; ev_status; _ }
        when ev_status = Runner.status_name Runner.Quarantined -> (
          (* Replay the crash before its Finished record, as the live
             runner journals them, so --resume and stats recover the
             crash phase/exn from the merged journal too. *)
          match List.assoc_opt ev_app t.mg_crashed with
          | Some (cstamp, cev) -> add ?stamp:cstamp cev
          | None -> ())
      | _ -> ());
      add ?stamp ev)
    t.mg_finished;
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
