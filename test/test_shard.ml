(* The sharded corpus farm: the deterministic --shard K/N partition, the
   parametric corpus generator behind --gen, and the offline merge that
   folds N shard artifact sets back into the unsharded run's — all
   exercised in-process over small generated corpora with throwaway temp
   directories (the e2e_check shard scenario covers the same contracts
   through the real binary). *)

module Corpus = Extr_corpus.Corpus
module Spec = Extr_corpus.Spec
module Journal = Extr_resilience.Journal
module Runner = Extr_eval.Runner
module Merge = Extr_eval.Merge
module Stats = Extr_eval.Stats
module Clock = Extr_telemetry.Clock
module Export = Extr_telemetry.Export
module Json = Extr_httpmodel.Json
module Report = Extr_extractocol.Report
module Resilience = Extr_resilience.Resilience
module Fault = Extr_resilience.Fault
module Store = Extr_store.Store

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let tmp_dir () =
  let f = Filename.temp_file "shard" "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let write path contents =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents)

let gen_seed = 3
let gen_count = 8
let entries () = Corpus.generated ~seed:gen_seed ~count:gen_count

let opts ?shard ~dir tag =
  {
    Runner.default_options with
    Runner.ro_sleep = fst (Clock.sleep_recording ());
    ro_journal = Some (Filename.concat dir (tag ^ ".jsonl"));
    ro_cache_dir = Some (Filename.concat dir (tag ^ "-cache"));
    ro_shard = shard;
    ro_corpus_tag = Some (Printf.sprintf "gen=%d:%d" gen_seed gen_count);
  }

let run_ok options entries =
  match Runner.run options entries with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let merge_ok ~journals ?(cache_dirs = []) ?expect_shards () =
  match Merge.merge ~journals ~cache_dirs ?expect_shards () with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let contains ~needle s =
  let n = String.length needle in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = needle || at (i + 1))
  in
  at 0

(* ------------------------------------------------------------------ *)
(* Partition                                                          *)
(* ------------------------------------------------------------------ *)

let test_shard_partition () =
  let names =
    List.map (fun (e : Corpus.entry) -> e.Corpus.c_app.Spec.a_name)
      (Corpus.generated ~seed:1 ~count:100)
  in
  List.iter
    (fun shards ->
      (* Total: every name lands on exactly one shard, in range. *)
      let counts = Array.make shards 0 in
      List.iter
        (fun n ->
          let k = Runner.shard_index ~shards n in
          check Alcotest.bool "index in range" true (k >= 0 && k < shards);
          counts.(k) <- counts.(k) + 1)
        names;
      check Alcotest.int "partition covers the corpus" 100
        (Array.fold_left ( + ) 0 counts);
      (* Deterministic: the same name always lands on the same shard. *)
      List.iter
        (fun n ->
          check Alcotest.int "stable assignment"
            (Runner.shard_index ~shards n)
            (Runner.shard_index ~shards n))
        names)
    [ 1; 2; 3; 7 ];
  (* The whole corpus on one shard when N = 1. *)
  List.iter
    (fun n -> check Alcotest.int "single shard owns all" 0
        (Runner.shard_index ~shards:1 n))
    names

let test_shard_rejects_bad_spec () =
  let es = entries () in
  let dir = tmp_dir () in
  List.iter
    (fun shard ->
      match
        Runner.run { (opts ~shard ~dir "bad") with Runner.ro_journal = None }
          es
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "out-of-range --shard accepted")
    [ (0, 3); (4, 3); (1, 0) ]

(* ------------------------------------------------------------------ *)
(* Generator                                                          *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  let a = Corpus.generated ~seed:11 ~count:40 in
  let b = Corpus.generated ~seed:11 ~count:40 in
  check Alcotest.int "count honoured" 40 (List.length a);
  let names l =
    List.map (fun (e : Corpus.entry) -> e.Corpus.c_app.Spec.a_name) l
  in
  check Alcotest.(list string) "same seed, same corpus" (names a) (names b);
  let uniq = List.sort_uniq compare (names a) in
  check Alcotest.int "names unique" 40 (List.length uniq);
  let endpoints l =
    List.map
      (fun (e : Corpus.entry) -> List.length e.Corpus.c_app.Spec.a_endpoints)
      l
  in
  check Alcotest.(list int) "same seed, same shapes" (endpoints a)
    (endpoints b);
  let c = Corpus.generated ~seed:12 ~count:40 in
  check Alcotest.bool "different seed, different corpus" true
    (endpoints a <> endpoints c)

let test_generator_rows_sane () =
  List.iter
    (fun (e : Corpus.entry) ->
      let app = e.Corpus.c_app in
      check Alcotest.bool "has endpoints" true (app.Spec.a_endpoints <> []);
      List.iter
        (fun (ep : Spec.endpoint) ->
          check Alcotest.bool "endpoint has a path" true (ep.Spec.e_path <> []))
        app.Spec.a_endpoints)
    (Corpus.generated ~seed:2 ~count:50)

(* ------------------------------------------------------------------ *)
(* strip_shard                                                        *)
(* ------------------------------------------------------------------ *)

let test_strip_shard () =
  let kn = Alcotest.(option (pair int int)) in
  let case config want_base want_kn =
    let base, shard = Merge.strip_shard config in
    check Alcotest.string "base" want_base base;
    check kn "shard" want_kn shard
  in
  case "a;b;v1" "a;b;v1" None;
  case "a;b;v1;shard=2/5" "a;b;v1" (Some (2, 5));
  case "a;b;v1;shard=1/1" "a;b;v1" (Some (1, 1));
  (* Malformed or out-of-range suffixes are ordinary content. *)
  case "a;shard=0/3" "a;shard=0/3" None;
  case "a;shard=4/3" "a;shard=4/3" None;
  case "a;shard=x/y" "a;shard=x/y" None;
  case "a;shard=" "a;shard=" None;
  (* The runner's own fingerprints round-trip. *)
  let o =
    { Runner.default_options with Runner.ro_shard = Some (2, 3) }
  in
  let base, shard = Merge.strip_shard (Runner.journal_fingerprint o) in
  check Alcotest.string "runner base recovered"
    (Runner.config_fingerprint o) base;
  check kn "runner shard recovered" (Some (2, 3)) shard;
  (* The corpus tag round-trips too: the tag perfbench writes for
     gen1000 names that corpus, and only the exact text [corpus_tag]
     writes is a tag. *)
  check Alcotest.string "the gen1000 tag" "gen=1:1000"
    (Runner.corpus_tag ~seed:1 ~count:1000);
  let corpus tag =
    Runner.corpus_of_fingerprint
      (Runner.config_fingerprint
         { Runner.default_options with Runner.ro_corpus_tag = tag })
  in
  let names es =
    List.map (fun (e : Corpus.entry) -> e.Corpus.c_app.Spec.a_name) es
  in
  let shapes es =
    List.map
      (fun (e : Corpus.entry) -> List.length e.Corpus.c_app.Spec.a_endpoints)
      es
  in
  let want = Corpus.generated ~seed:1 ~count:1000 in
  let got = corpus (Some "gen=1:1000") in
  check Alcotest.(list string) "gen=1:1000 names" (names want) (names got);
  check Alcotest.(list int) "gen=1:1000 shapes" (shapes want) (shapes got);
  check Alcotest.(list int) "seed, then count"
    (shapes (Corpus.generated ~seed:7 ~count:5))
    (shapes (corpus (Some (Runner.corpus_tag ~seed:7 ~count:5))));
  let builtin = names (Corpus.builtin ()) in
  check Alcotest.(list string) "no tag, the built-in corpus" builtin
    (names (corpus None));
  List.iter
    (fun tag ->
      check Alcotest.(list string) (tag ^ " is no tag") builtin
        (names (corpus (Some tag))))
    [ "gen=1:"; "gen=x:5"; "gen=01:5"; "gen=1:5:6"; "gen=+1:5" ]

(* ------------------------------------------------------------------ *)
(* Shard runs + merge                                                 *)
(* ------------------------------------------------------------------ *)

(* One unsharded run and a 2-way shard split over the same generated
   corpus, reused across the merge scenarios below. *)
let with_shard_runs f =
  let dir = tmp_dir () in
  let es = entries () in
  let base_o = opts ~dir "base" in
  let base_run = run_ok base_o es in
  let base_json =
    Runner.report_json ~config:(Runner.journal_fingerprint base_o) base_run
  in
  let shard_o k = opts ~shard:(k, 2) ~dir (Printf.sprintf "s%d" k) in
  let s1 = run_ok (shard_o 1) es and s2 = run_ok (shard_o 2) es in
  check Alcotest.int "shards split the corpus" gen_count
    (List.length s1.Runner.rn_results + List.length s2.Runner.rn_results);
  check Alcotest.bool "both shards own work" true
    (s1.Runner.rn_results <> [] && s2.Runner.rn_results <> []);
  let j k = Filename.concat dir (Printf.sprintf "s%d.jsonl" k) in
  let c k = Filename.concat dir (Printf.sprintf "s%d-cache" k) in
  f ~dir ~base_o ~base_json ~journals:[ j 1; j 2 ]
    ~cache_dirs:[ c 1; c 2 ]

let test_merge_reassembles_unsharded () =
  with_shard_runs
    (fun ~dir ~base_o:_ ~base_json ~journals ~cache_dirs ->
      let t = merge_ok ~journals ~cache_dirs () in
      check Alcotest.int "clean merge exits 0" 0 (Merge.exit_code t);
      check Alcotest.string "envelope byte-identical to unsharded" base_json
        (Merge.report_json t);
      (* Idempotency: merging merge's own outputs reproduces it. *)
      let mj = Filename.concat dir "merged.jsonl" in
      write mj (Merge.journal_contents t);
      let mc = Filename.concat dir "merged-cache" in
      Sys.mkdir mc 0o755;
      List.iter
        (fun (key, data) ->
          write (Filename.concat mc (key ^ ".json")) (Store.seal data))
        t.Merge.mg_cache;
      let t2 = merge_ok ~journals:[ mj ] ~cache_dirs:[ mc ] () in
      check Alcotest.int "re-merge exits 0" 0 (Merge.exit_code t2);
      check Alcotest.string "re-merge is a no-op" (Merge.report_json t)
        (Merge.report_json t2);
      (* Overlap tolerance: merging every input twice changes nothing. *)
      let t3 =
        merge_ok ~journals:(journals @ journals)
          ~cache_dirs:(cache_dirs @ cache_dirs) ()
      in
      check Alcotest.string "duplicated shards merge identically" base_json
        (Merge.report_json t3))

let test_merge_missing_shard () =
  with_shard_runs
    (fun ~dir:_ ~base_o:_ ~base_json:_ ~journals ~cache_dirs ->
      let t = merge_ok ~journals:[ List.hd journals ] ~cache_dirs () in
      (* Shard 1's journal declares N=2, so shard 2's absence is
         inferred even without expect_shards. *)
      check Alcotest.(list int) "missing shard listed" [ 2 ]
        t.Merge.mg_missing_shards;
      check Alcotest.bool "its apps are missing too" true
        (t.Merge.mg_missing_apps <> []);
      check Alcotest.int "partial merge exits 4" 4 (Merge.exit_code t);
      match Merge.envelope_of_json (Merge.report_json t) with
      | Ok (_, mm) ->
          check Alcotest.(list int) "envelope names the missing shard" [ 2 ]
            mm.Merge.mm_missing_shards;
          check Alcotest.(list string) "and its apps" t.Merge.mg_missing_apps
            mm.Merge.mm_missing_apps
      | Error e -> Alcotest.fail e)

let test_merge_corrupt_cache_entry () =
  with_shard_runs
    (fun ~dir:_ ~base_o:_ ~base_json:_ ~journals ~cache_dirs ->
      (* Truncate one entry in shard 1's cache: its app keeps its
         journal status but loses its report, and the merge degrades
         (exit 3) instead of aborting. *)
      let dir1 = List.hd cache_dirs in
      (match Sys.readdir dir1 with
      | [||] -> Alcotest.fail "shard 1 cache is empty"
      | files -> write (Filename.concat dir1 files.(0)) "{\"torn");
      let t = merge_ok ~journals ~cache_dirs () in
      check Alcotest.int "degraded merge exits 3" 3 (Merge.exit_code t);
      check Alcotest.bool "degradation recorded" true
        (List.exists
           (fun (d : Merge.degradation) ->
             d.Merge.md_reason = "corrupt cache entry quarantined")
           t.Merge.mg_degradations);
      check Alcotest.int "every app still present" gen_count
        (List.length t.Merge.mg_run.Runner.rn_results))

let test_envelope_round_trip () =
  (* The envelope decoders give back the run and the merge members the
     encoders were given: a degraded cached report, a quarantined app's
     crash entry, the interrupted flag. *)
  let dg =
    {
      Resilience.Degrade.dg_phase = "slicing.backward";
      dg_reason = "step-budget-exhausted";
      dg_detail = "q\"uote";
      dg_work_left = 3;
    }
  in
  let report =
    Report.of_transactions ~degradations:[ dg ] ~app:"a" ~dp_count:1
      ~slice_stmts:2 ~total_stmts:3 ~elapsed_s:0.5 []
  in
  let app ar_app ar_status ar_attempts =
    {
      Runner.ar_app;
      ar_status;
      ar_cached = ar_status = Runner.Degraded;
      ar_resumed = false;
      ar_attempts;
      ar_txs = 0;
      ar_degradations = [];
      ar_elapsed_s = 0.0;
      ar_crash = None;
      ar_report_json = None;
    }
  in
  let crash =
    {
      Resilience.Barrier.cr_app = "b#2";
      cr_exn = "Failure(\"boom\")";
      cr_phase = "hung@pipeline.slicing";
      cr_backtrace = "";
    }
  in
  let run =
    {
      Runner.rn_results =
        [
          {
            (app "a" Runner.Degraded 2) with
            Runner.ar_degradations = [ dg ];
            ar_report_json =
              Some (Json.to_string (Report.to_json ~deterministic:true report));
          };
          {
            (app "b#2" Runner.Quarantined 1) with
            Runner.ar_crash = Some crash;
          };
        ];
      rn_interrupted = false;
      rn_quarantined = [ "b#2" ];
      rn_worker_spans = [];
    }
  in
  let members =
    {
      Merge.mm_missing_shards = [ 2; 3 ];
      mm_missing_apps = [ "gen0004" ];
      mm_degradations =
        [
          {
            Merge.md_app = "";
            md_reason = "journal unreadable";
            md_detail = "x:\ny";
          };
        ];
    }
  in
  let t =
    {
      Merge.mg_config = "cfg;shard=\\";
      mg_run = run;
      mg_outcomes = [];
      mg_missing_shards = members.Merge.mm_missing_shards;
      mg_missing_apps = members.mm_missing_apps;
      mg_degradations = members.mm_degradations;
      mg_cache = [];
      mg_expected = 3;
    }
  in
  (match Merge.envelope_of_json (Merge.report_json t) with
  | Ok (en, mm) ->
      check Alcotest.string "config" t.Merge.mg_config en.Runner.en_config;
      check Alcotest.bool "run" true (en.Runner.en_run = run);
      check Alcotest.bool "merge members" true (mm = members)
  | Error e -> Alcotest.fail e);
  let interrupted = { run with Runner.rn_interrupted = true } in
  match Runner.envelope_of_json (Runner.report_json ~config:"c" interrupted)
  with
  | Ok en ->
      check Alcotest.bool "interrupted run" true
        (en.Runner.en_run = interrupted);
      check Alcotest.int "no extra members" 0 (List.length en.Runner.en_extra)
  | Error e -> Alcotest.fail e

(* The journals are the one source of a set's configuration: a set whose
   headers name two bases is refused by merge and stats alike, each
   naming both. *)
let test_merge_rejects_mixed_bases () =
  with_shard_runs
    (fun ~dir ~base_o ~base_json:_ ~journals ~cache_dirs ->
      let other =
        {
          base_o with
          Runner.ro_corpus_tag = Some (Runner.corpus_tag ~seed:99 ~count:99);
        }
      in
      let foreign = Filename.concat dir "foreign.jsonl" in
      Journal.append
        (Journal.create ~path:foreign
           ~config:(Runner.journal_fingerprint other) ())
        (Journal.Started
           { ev_app = "gen0001"; ev_key = String.make 32 'a'; ev_attempt = 1 });
      let journals = journals @ [ foreign ] in
      let names_both reader msg =
        List.iter
          (fun o ->
            check Alcotest.bool
              (reader ^ " names both bases")
              true
              (contains ~needle:(Runner.config_fingerprint o) msg))
          [ base_o; other ]
      in
      (match Merge.merge ~journals ~cache_dirs () with
      | Error msg -> names_both "merge" msg
      | Ok _ -> Alcotest.fail "merge accepted a set mixing two bases");
      match Stats.of_artifacts ~journals () with
      | Error msg -> names_both "stats" msg
      | Ok _ -> Alcotest.fail "stats accepted a set mixing two bases")

let test_merge_empty_and_unreadable_journals () =
  with_shard_runs
    (fun ~dir ~base_o:_ ~base_json ~journals ~cache_dirs ->
      (* A zero-byte journal — the stale-lock shape a shard leaves when
         killed between open and header — is an empty shard, not an
         error and not a degradation. *)
      let empty = Filename.concat dir "empty.jsonl" in
      write empty "";
      let t = merge_ok ~journals:(journals @ [ empty ]) ~cache_dirs () in
      check Alcotest.int "empty journal never degrades" 0
        (Merge.exit_code t);
      check Alcotest.string "envelope unchanged" base_json
        (Merge.report_json t);
      (* A missing journal file degrades (exit 3) but never aborts. *)
      let t2 =
        merge_ok
          ~journals:(journals @ [ Filename.concat dir "nope.jsonl" ])
          ~cache_dirs ()
      in
      check Alcotest.int "unreadable journal degrades" 3
        (Merge.exit_code t2);
      check Alcotest.int "results unaffected" gen_count
        (List.length t2.Merge.mg_run.Runner.rn_results);
      (* With no readable header, nothing names the set's configuration
         or corpus, so there is nothing to merge into. *)
      match
        Merge.merge ~journals:[ empty; Filename.concat dir "nope.jsonl" ] ()
      with
      | Error _ -> ()
      | Ok t ->
          Alcotest.failf "a set with no readable header merged (exit %d)"
            (Merge.exit_code t))

let test_merge_restarted_app_missing () =
  (* Resume over a lost cache, killed while it re-runs the first app:
     that app's Finished record is followed by a Started one.  --resume
     would re-run it and stats shows it in flight, so merge lists it
     missing (exit 4) instead of counting it finished. *)
  let dir = tmp_dir () in
  let es = entries () in
  let o = opts ~dir "run" in
  ignore (run_ok o es);
  let lost = { o with Runner.ro_cache_dir = Some (Filename.concat dir "lost") } in
  Fault.arm ~site:"pipeline.interpretation" ~occurrence:1 ~mode:"kill" ();
  (match Runner.run { lost with Runner.ro_resume = true } es with
  | exception Resilience.Barrier.Killed -> Fault.reset ()
  | _ ->
      Fault.reset ();
      Alcotest.fail "the kill did not fire");
  let journal = Option.get o.Runner.ro_journal in
  let t =
    merge_ok ~journals:[ journal ]
      ~cache_dirs:(Option.to_list lost.Runner.ro_cache_dir)
      ()
  in
  check Alcotest.(list string) "the restarted app is missing" [ "gen0001" ]
    t.Merge.mg_missing_apps;
  check Alcotest.int "partial merge exits 4" 4 (Merge.exit_code t);
  check Alcotest.int "every other app merged" (gen_count - 1)
    (List.length t.Merge.mg_run.Runner.rn_results);
  match Stats.of_artifacts ~journals:[ journal ] () with
  | Error e -> Alcotest.fail e
  | Ok st ->
      check Alcotest.(list string) "stats shows it in flight" [ "gen0001" ]
        (List.filter_map
           (fun a ->
             if a.Stats.st_status = "in-flight" then Some a.Stats.st_app
             else None)
           st.Stats.rs_apps)

let test_shard_journal_isolation () =
  (* A shard refuses to resume another shard's journal: the shard
     identity is part of the journal fingerprint. *)
  let dir = tmp_dir () in
  let es = entries () in
  ignore (run_ok (opts ~shard:(1, 2) ~dir "s1") es);
  let o2 =
    {
      (opts ~shard:(2, 2) ~dir "s2") with
      Runner.ro_journal = Some (Filename.concat dir "s1.jsonl");
      ro_resume = true;
    }
  in
  match Runner.run o2 es with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "shard 2 resumed shard 1's journal"

let test_stats_pools_shard_journals () =
  with_shard_runs
    (fun ~dir:_ ~base_o ~base_json:_ ~journals ~cache_dirs:_ ->
      match Stats.of_artifacts ~journals () with
      | Error e -> Alcotest.fail e
      | Ok st ->
          check Alcotest.int "fleet view covers the corpus" gen_count
            (List.length st.Stats.rs_apps);
          check Alcotest.string "shard suffix stripped from config"
            (Runner.config_fingerprint base_o)
            st.Stats.rs_config)

let () =
  Alcotest.run "shard"
    [
      ( "partition",
        [
          tc "total, in-range, deterministic" test_shard_partition;
          tc "bad K/N rejected" test_shard_rejects_bad_spec;
        ] );
      ( "generator",
        [
          tc "seeded and deterministic" test_generator_deterministic;
          tc "generated rows are analyzable" test_generator_rows_sane;
        ] );
      ( "merge",
        [
          tc "fingerprint round-trip" test_strip_shard;
          tc "reassembles the unsharded run, idempotently"
            test_merge_reassembles_unsharded;
          tc "missing shard is explicit (exit 4)" test_merge_missing_shard;
          tc "corrupt cache entry quarantines (exit 3)"
            test_merge_corrupt_cache_entry;
          tc "a set mixing two bases is refused"
            test_merge_rejects_mixed_bases;
          tc "envelope round-trips through its decoders"
            test_envelope_round_trip;
          tc "empty vs unreadable journals" test_merge_empty_and_unreadable_journals;
          tc "an app killed in its re-run is missing (exit 4)"
            test_merge_restarted_app_missing;
          tc "shards only resume their own journal"
            test_shard_journal_isolation;
        ] );
      ( "stats",
        [ tc "pools a shard set into one view" test_stats_pools_shard_journals ]
      );
    ]
