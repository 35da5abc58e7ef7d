(* Offline run statistics: reconstruct an --all run's story purely from
   the artifacts it left behind — the journal (required), the result
   cache directory and the metrics snapshot (optional).  Nothing here
   re-runs analysis or opens anything for writing, so a journal from a
   killed or still-running run is safe to inspect. *)

module Journal = Extr_resilience.Journal
module Store = Extr_store.Store
module Metrics = Extr_telemetry.Metrics
module Profile = Extr_telemetry.Profile
module Export = Extr_telemetry.Export

type app = {
  st_app : string;
  st_status : string;  (* "ok" | "degraded" | "quarantined" | "in-flight" *)
  st_cached : bool;
  st_attempts : int;
  st_txs : int;
  st_wall_s : float option;
      (* first started -> last finished, from the record stamps *)
}

type phase = {
  ph_name : string;
  ph_count : int;
  ph_p50_us : float option;
  ph_p95_us : float option;
  ph_p99_us : float option;
}

type t = {
  rs_config : string;
  rs_apps : app list;  (* journal order of first appearance *)
  rs_finished : int;
  rs_ok : int;
  rs_degraded : int;
  rs_quarantined : int;
  rs_cached : int;
  rs_retries : (string * int) list;  (* reason -> count, by count desc *)
  rs_crashes : (string * int) list;  (* phase -> count, by count desc *)
  rs_wall_s : float option;  (* first stamp -> last stamp *)
  rs_dropped : int;  (* corrupt journal records dropped by the reader *)
  rs_cache_entries : int option;  (* entries on disk under --cache-dir *)
  rs_phases : phase list;  (* pipeline.phase_us series from --metrics *)
  rs_profile : (Profile.snapshot * (string * float * float) list) option;
      (* the --profile artifact, as Export.pp_profile prints it *)
}

(* The exact footer line run_all prints, so `extractocol stats` can be
   checked verbatim against the live run's output (e2e_check's trace
   scenario does). *)
let summary_line t =
  Printf.sprintf "%d apps: %d ok, %d degraded, %d quarantined (%d from cache)"
    t.rs_finished t.rs_ok t.rs_degraded t.rs_quarantined t.rs_cached

(* ------------------------------------------------------------------ *)
(* Journal digestion                                                   *)
(* ------------------------------------------------------------------ *)

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let sorted_counts tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (ka, a) (kb, b) ->
         match compare (b : int) a with 0 -> compare ka kb | c -> c)

(* An app's row from its outcome: the same decision --resume makes.  An
   app with no Finished record, or one whose status no writer produces,
   is one --resume would re-run: in flight. *)
let app_of_outcome (o : Journal.outcome) =
  match o.Journal.oc_finished with
  | Some (finished_at, Journal.Finished f)
    when Runner.status_of_name f.ev_status <> None ->
      {
        st_app = o.Journal.oc_app;
        st_status = f.ev_status;
        st_cached = f.ev_cached;
        st_attempts = f.ev_attempts;
        st_txs = f.ev_txs;
        st_wall_s =
          (match o.Journal.oc_started with
          | Some t0 when finished_at >= t0 -> Some (finished_at -. t0)
          | _ -> None);
      }
  | _ ->
      {
        st_app = o.Journal.oc_app;
        st_status = "in-flight";
        st_cached = false;
        st_attempts = 0;
        st_txs = 0;
        st_wall_s = None;
      }

let of_records records =
  let retries = Hashtbl.create 8 in
  let crashes = Hashtbl.create 8 in
  List.iter
    (fun (_, ev) ->
      match ev with
      | Journal.Retried { ev_reason; _ } -> bump retries ev_reason
      | Journal.Crashed { ev_phase; _ } -> bump crashes ev_phase
      | Journal.Started _ | Journal.Finished _ -> ())
    records;
  let apps = List.map app_of_outcome (Journal.outcomes records) in
  let count pred = List.length (List.filter pred apps) in
  let status st a = a.st_status = st in
  (* Records come in stamp order, so the first and last stamps bound the
     run. *)
  let stamps = List.map fst records in
  {
    rs_config = "";
    rs_apps = apps;
    rs_finished = count (fun a -> a.st_status <> "in-flight");
    rs_ok = count (status "ok");
    rs_degraded = count (status "degraded");
    rs_quarantined = count (status "quarantined");
    rs_cached = count (fun a -> a.st_cached);
    rs_retries = sorted_counts retries;
    rs_crashes = sorted_counts crashes;
    rs_wall_s =
      (match (stamps, List.rev stamps) with
      | first :: _, last :: _ when last >= first -> Some (last -. first)
      | _ -> None);
    rs_dropped = 0;
    rs_cache_entries = None;
    rs_phases = [];
    rs_profile = None;
  }

(* ------------------------------------------------------------------ *)
(* Optional artifacts                                                  *)
(* ------------------------------------------------------------------ *)

(* A pipeline.phase_us series as a phase row, with the percentiles the
   exporter annotates it with (recomputed from the same buckets). *)
let phase_of_sample (s : Metrics.sample) =
  if s.Metrics.sa_name <> "pipeline.phase_us" then None
  else
    Some
      {
        ph_name =
          Option.value ~default:"?"
            (List.assoc_opt "phase" s.Metrics.sa_labels);
        ph_count = s.Metrics.sa_count;
        ph_p50_us = Metrics.percentile s 50.0;
        ph_p95_us = Metrics.percentile s 95.0;
        ph_p99_us = Metrics.percentile s 99.0;
      }

(* A journal set: one journal is the classic single-run view; a list is
   a shard set inspected before (or instead of) running `merge`.  The
   shard-set reader pools the records in stamp order and decides the
   set's base; here an unreadable journal, or disagreeing bases, is an
   error. *)
let read_journals paths =
  let set = Merge.read_shard_set paths in
  let rec fold dropped = function
    | [] -> Ok dropped
    | (_, Merge.Unreadable msg) :: _ -> Error msg
    | (_, Merge.Empty) :: rest -> fold dropped rest
    | (_, Merge.Header h) :: rest ->
        fold (dropped + List.length h.jh_anomalies) rest
  in
  Result.bind (fold 0 set.Merge.ss_journals) (fun dropped ->
      Result.map
        (fun base ->
          (* A single journal keeps its full fingerprint (the shard
             suffix is informative); a set is reported under its base. *)
          let shown =
            match (set.Merge.ss_journals, base) with
            | [ (_, Merge.Header h) ], _ -> h.jh_config
            | _, Some base -> base
            | _, None -> "(empty journal)"
          in
          (shown, set.Merge.ss_records, dropped))
        set.Merge.ss_base)

let of_artifacts ~journals ?cache_dir ?metrics ?profile () =
  let ( let* ) = Result.bind in
  let* config, records, dropped = read_journals journals in
  let* phases =
    match metrics with
    | None -> Ok []
    | Some path ->
        Result.map (List.filter_map phase_of_sample) (Export.read_metrics path)
  in
  let* profile =
    match profile with
    | None -> Ok None
    | Some path -> Result.map Option.some (Export.read_profile path)
  in
  Ok
    {
      (of_records records) with
      rs_config = config;
      rs_dropped = dropped;
      rs_cache_entries =
        Option.bind cache_dir (fun dir ->
            Option.map List.length (Store.entries ~dir));
      rs_phases = phases;
      rs_profile = profile;
    }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let slowest ?(n = 5) t =
  List.filter_map
    (fun a -> Option.map (fun w -> (a, w)) a.st_wall_s)
    t.rs_apps
  |> List.stable_sort (fun (_, a) (_, b) -> compare (b : float) a)
  |> List.filteri (fun i _ -> i < n)

let pp_opt_ms fmt = function
  | None -> Fmt.pf fmt "%8s" "-"
  | Some us -> Fmt.pf fmt "%8.2f" (us /. 1e3)

let pp fmt t =
  Fmt.pf fmt "run summary (from artifacts)@.";
  Fmt.pf fmt "  config: %s@." t.rs_config;
  Fmt.pf fmt "  %s@." (summary_line t);
  Option.iter (fun w -> Fmt.pf fmt "  wall clock: %.2fs@." w) t.rs_wall_s;
  let in_flight =
    List.filter (fun a -> a.st_status = "in-flight") t.rs_apps
  in
  if in_flight <> [] then
    Fmt.pf fmt "  in flight at journal end: %s@."
      (String.concat ", " (List.map (fun a -> a.st_app) in_flight));
  if t.rs_dropped > 0 then
    Fmt.pf fmt "  corrupt journal records dropped: %d@." t.rs_dropped;
  (match slowest t with
  | [] -> ()
  | slow ->
      Fmt.pf fmt "@.slowest apps:@.";
      List.iter
        (fun (a, w) ->
          Fmt.pf fmt "  %-28s %-11s %7.2fs  %d attempt%s@." a.st_app
            a.st_status w a.st_attempts
            (if a.st_attempts = 1 then "" else "s"))
        slow);
  if t.rs_retries <> [] then begin
    Fmt.pf fmt "@.retry ladder:@.";
    List.iter
      (fun (reason, n) -> Fmt.pf fmt "  %-40s %d@." reason n)
      t.rs_retries
  end;
  if t.rs_crashes <> [] then begin
    Fmt.pf fmt "@.crash taxonomy (by phase):@.";
    List.iter
      (fun (phase, n) -> Fmt.pf fmt "  %-40s %d@." phase n)
      t.rs_crashes
  end;
  Fmt.pf fmt "@.cache:@.";
  Fmt.pf fmt "  journaled hit rate: %d/%d%s@." t.rs_cached t.rs_finished
    (if t.rs_finished > 0 then
       Printf.sprintf " (%.0f%%)"
         (100.0 *. float_of_int t.rs_cached /. float_of_int t.rs_finished)
     else "");
  Option.iter
    (fun n -> Fmt.pf fmt "  entries on disk: %d@." n)
    t.rs_cache_entries;
  if t.rs_phases <> [] then begin
    Fmt.pf fmt "@.pipeline phases (from metrics):@.";
    Fmt.pf fmt "  %-20s %8s %8s %8s %8s@." "phase" "count" "p50(ms)"
      "p95(ms)" "p99(ms)";
    List.iter
      (fun p ->
        Fmt.pf fmt "  %-20s %8d %a %a %a@." p.ph_name p.ph_count pp_opt_ms
          p.ph_p50_us pp_opt_ms p.ph_p95_us pp_opt_ms p.ph_p99_us)
      t.rs_phases
  end;
  (* Last, and unindented: the section is byte for byte the view the
     live run's --profile printed. *)
  Option.iter
    (Fmt.pf fmt "@.profile (from --profile-out):@.%a" Export.pp_profile)
    t.rs_profile

(* ------------------------------------------------------------------ *)
(* Offline integrity audit (stats --verify)                            *)
(* ------------------------------------------------------------------ *)

type verify_report = {
  vr_journal_anomalies : (string * Journal.anomaly list) list;
      (* journals with corrupt records, journal order; lists non-empty *)
  vr_journal_errors : (string * string) list;  (* unreadable journals *)
  vr_cache_checked : int;  (* cache entries whose seal was verified *)
  vr_cache_corrupt : (string * string) list;  (* entry file -> reason *)
}

let verify ~journals ?cache_dir () =
  let set = (Merge.read_shard_set journals).Merge.ss_journals in
  let checked, corrupt =
    match cache_dir with None -> (0, []) | Some dir -> Store.audit ~dir
  in
  {
    vr_journal_anomalies =
      List.filter_map
        (function
          | path, Merge.Header h when h.jh_anomalies <> [] ->
              Some (path, h.jh_anomalies)
          | _ -> None)
        set;
    vr_journal_errors =
      List.filter_map
        (function path, Merge.Unreadable msg -> Some (path, msg) | _ -> None)
        set;
    vr_cache_checked = checked;
    vr_cache_corrupt = corrupt;
  }

let verify_clean r =
  r.vr_journal_anomalies = [] && r.vr_journal_errors = []
  && r.vr_cache_corrupt = []

let pp_verify fmt r =
  Fmt.pf fmt "artifact integrity audit@.";
  List.iter
    (fun (path, msg) -> Fmt.pf fmt "  UNREADABLE %s: %s@." path msg)
    r.vr_journal_errors;
  List.iter
    (fun (path, anomalies) ->
      List.iter
        (fun a -> Fmt.pf fmt "  CORRUPT %s: %a@." path Journal.pp_anomaly a)
        anomalies)
    r.vr_journal_anomalies;
  List.iter
    (fun (file, reason) -> Fmt.pf fmt "  CORRUPT %s: %s@." file reason)
    r.vr_cache_corrupt;
  if r.vr_cache_checked > 0 then
    Fmt.pf fmt "  cache entries verified: %d (%d corrupt)@." r.vr_cache_checked
      (List.length r.vr_cache_corrupt);
  if verify_clean r then Fmt.pf fmt "  all artifacts verified clean@."
  else
    Fmt.pf fmt "  integrity violations found: %d@."
      (List.length r.vr_journal_errors
      + List.fold_left
          (fun n (_, a) -> n + List.length a)
          0 r.vr_journal_anomalies
      + List.length r.vr_cache_corrupt)
