(* The durability layer: degrade-and-retry ladder, write-ahead journal,
   content-addressed result cache, and the corpus runner that composes
   them.  Retry backoff is asserted against the recording clock — no
   real sleeps — and runner scenarios (kill/resume byte-identity, warm
   cache, quarantine, exit codes) run in-process over a two-app corpus
   subset with throwaway temp directories. *)

module Corpus = Extr_corpus.Corpus
module Spec = Extr_corpus.Spec
module Resilience = Extr_resilience.Resilience
module Budget = Resilience.Budget
module Barrier = Resilience.Barrier
module Retry = Extr_resilience.Retry
module Journal = Extr_resilience.Journal
module Fault = Extr_resilience.Fault
module Store = Extr_store.Store
module Runner = Extr_eval.Runner
module Clock = Extr_telemetry.Clock
module Metrics = Extr_telemetry.Metrics
module Export = Extr_telemetry.Export
module Json = Extr_httpmodel.Json

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let tmp_dir () =
  let f = Filename.temp_file "durability" "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let base_limits =
  { Budget.bl_max_steps = 1000; bl_max_depth = 10; bl_deadline_s = Some 1.0 }

let crash phase =
  { Barrier.cr_app = "x"; cr_exn = "boom"; cr_phase = phase; cr_backtrace = "" }

(* ------------------------------------------------------------------ *)
(* Retry ladder                                                       *)
(* ------------------------------------------------------------------ *)

let test_escalate () =
  let e = Retry.escalate Retry.default_policy base_limits in
  check Alcotest.int "steps multiplied" 4000 e.Budget.bl_max_steps;
  check Alcotest.int "depth widened" 18 e.Budget.bl_max_depth;
  check
    Alcotest.(option (float 1e-9))
    "deadline multiplied" (Some 2.0) e.Budget.bl_deadline_s;
  let huge =
    { Budget.bl_max_steps = max_int; bl_max_depth = max_int; bl_deadline_s = None }
  in
  let e = Retry.escalate Retry.default_policy huge in
  check Alcotest.int "steps saturate" max_int e.Budget.bl_max_steps;
  check Alcotest.int "depth saturates" max_int e.Budget.bl_max_depth;
  check Alcotest.(option (float 1e-9)) "no deadline stays off" None
    e.Budget.bl_deadline_s;
  (* The rest of the ladder follows from the attempt count, and cache keys
     and the envelope's config digest the fingerprint of every count. *)
  check Alcotest.bool "one attempt never escalates" true
    (Retry.escalate Retry.no_retry base_limits = base_limits);
  List.iter
    (fun (n, fingerprint) ->
      check Alcotest.string
        (Printf.sprintf "fingerprint at %d attempts" n)
        fingerprint
        (Retry.fingerprint { Retry.rp_max_attempts = n }))
    [
      (1, "retry=1/0;backoff=0;escalate=1x/+0/1x");
      (3, "retry=3/1;backoff=0.05;escalate=4x/+8/2x");
      (5, "retry=5/1;backoff=0.05;escalate=4x/+8/2x");
    ]

let test_ladder_escalates_then_succeeds () =
  let sleep, slept = Clock.sleep_recording () in
  let seen = ref [] in
  let reasons = ref [] in
  let attempt ~attempt limits =
    seen := (attempt, limits) :: !seen;
    if attempt < 2 then Result.Ok (Retry.Degraded attempt)
    else Result.Ok (Retry.Clean attempt)
  in
  (match
     Retry.run ~sleep
       ~on_retry:(fun ~attempt:_ ~reason -> reasons := reason :: !reasons)
       Retry.default_policy ~limits:base_limits ~attempt
   with
  | Retry.Succeeded (v, n) ->
      check Alcotest.int "attempts used" 2 n;
      check Alcotest.int "last attempt's value" 2 v
  | _ -> Alcotest.fail "expected Succeeded");
  check Alcotest.(list (float 1e-9)) "one base backoff" [ 0.05 ] (slept ());
  check Alcotest.(list string) "retry reason" [ "budget-exhausted" ] !reasons;
  match List.rev !seen with
  | [ (1, l1); (2, l2) ] ->
      check Alcotest.int "first rung at base limits" 1000 l1.Budget.bl_max_steps;
      check Alcotest.int "second rung escalated" 4000 l2.Budget.bl_max_steps;
      check Alcotest.int "depth escalated" 18 l2.Budget.bl_max_depth
  | _ -> Alcotest.fail "expected exactly two attempts"

let test_ladder_exhausts_still_degraded () =
  let sleep, slept = Clock.sleep_recording () in
  let attempt ~attempt _ = Result.Ok (Retry.Degraded attempt) in
  (match Retry.run ~sleep Retry.default_policy ~limits:base_limits ~attempt with
  | Retry.Still_degraded (v, n) ->
      check Alcotest.int "all attempts spent" 3 n;
      check Alcotest.int "largest-budget result returned" 3 v
  | _ -> Alcotest.fail "expected Still_degraded");
  (* Deterministic exponential backoff, recorded not slept. *)
  check Alcotest.(list (float 1e-9)) "doubling backoff" [ 0.05; 0.1 ] (slept ())

let test_crash_retried_once_then_quarantined () =
  let sleep, slept = Clock.sleep_recording () in
  let seen = ref [] in
  let reasons = ref [] in
  let attempt ~attempt limits =
    seen := (attempt, limits) :: !seen;
    Result.Error (crash "pipeline.interpretation")
  in
  (match
     Retry.run ~sleep
       ~on_retry:(fun ~attempt:_ ~reason -> reasons := reason :: !reasons)
       Retry.default_policy ~limits:base_limits ~attempt
   with
  | Retry.Quarantined (c, n) ->
      check Alcotest.int "one retry granted" 2 n;
      check Alcotest.string "crash phase kept" "pipeline.interpretation"
        c.Barrier.cr_phase
  | _ -> Alcotest.fail "expected Quarantined");
  check Alcotest.(list (float 1e-9)) "one backoff" [ 0.05 ] (slept ());
  check
    Alcotest.(list string)
    "crash reason carries the phase"
    [ "crash:pipeline.interpretation" ]
    !reasons;
  (* A crash is not a budget problem: the retry keeps the same limits. *)
  match !seen with
  | [ (2, l2); (1, l1) ] ->
      check Alcotest.int "limits unchanged" l1.Budget.bl_max_steps
        l2.Budget.bl_max_steps
  | _ -> Alcotest.fail "expected exactly two attempts"

let test_no_retry_policy () =
  let sleep, slept = Clock.sleep_recording () in
  let calls = ref 0 in
  let attempt ~attempt:_ _ =
    incr calls;
    Result.Ok (Retry.Degraded ())
  in
  (match Retry.run ~sleep Retry.no_retry ~limits:base_limits ~attempt with
  | Retry.Still_degraded ((), 1) -> ()
  | _ -> Alcotest.fail "expected Still_degraded after one attempt");
  check Alcotest.int "single attempt" 1 !calls;
  check Alcotest.(list (float 1e-9)) "no backoff" [] (slept ())

(* ------------------------------------------------------------------ *)
(* Journal                                                            *)
(* ------------------------------------------------------------------ *)

let ev_started app =
  Journal.Started { ev_app = app; ev_key = String.make 32 'a'; ev_attempt = 1 }

let ev_finished ?(status = "ok") app =
  Journal.Finished
    {
      ev_app = app;
      ev_key = String.make 32 'a';
      ev_status = status;
      ev_cached = false;
      ev_attempts = 1;
      ev_txs = 4;
    }

let render ev = Fmt.str "%a" Journal.pp_event ev

let test_journal_round_trip () =
  let path = Filename.temp_file "journal" ".jsonl" in
  let j = Journal.create ~path ~config:"cfg-1" () in
  let events =
    [
      ev_started "app-a";
      Journal.Crashed
        { ev_app = "app-a"; ev_phase = "pipeline.slicing"; ev_exn = "boom" };
      Journal.Retried
        { ev_app = "app-a"; ev_attempt = 2; ev_reason = "crash:pipeline.slicing" };
      ev_finished "app-a";
    ]
  in
  List.iter (Journal.append j) events;
  match Journal.load ~path ~config:"cfg-1" () with
  | Error e -> Alcotest.fail e
  | Ok (_, loaded, _) ->
      check
        Alcotest.(list string)
        "events survive the round trip" (List.map render events)
        (List.map (fun (_, ev) -> render ev) loaded);
      (match Journal.outcomes loaded with
      | [ { Journal.oc_app = "app-a"; oc_finished = Some (_, Journal.Finished f);
            oc_crashed = Some (_, Journal.Crashed c); _ } ] ->
          check Alcotest.string "status" "ok" f.ev_status;
          check Alcotest.int "txs" 4 f.ev_txs;
          check Alcotest.string "crash phase" "pipeline.slicing" c.ev_phase
      | _ -> Alcotest.fail "expected one finished app")

let test_journal_config_mismatch_refused () =
  let path = Filename.temp_file "journal" ".jsonl" in
  let j = Journal.create ~path ~config:"cfg-1" () in
  Journal.append j (ev_started "app-a");
  (match Journal.load ~path ~config:"cfg-2" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a different configuration must refuse to resume");
  match Journal.load ~path:(path ^ ".missing") ~config:"cfg-1" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a missing journal must be an error"

let test_journal_skips_torn_trailing_line () =
  let path = Filename.temp_file "journal" ".jsonl" in
  let j = Journal.create ~path ~config:"cfg-1" () in
  Journal.append j (ev_started "app-a");
  Journal.append j (ev_finished "app-a");
  (* A kill mid-append on a non-atomic filesystem: garbage and a torn
     half-record after the valid lines. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "not json at all\n{\"event\":\"finis";
  close_out oc;
  match Journal.load ~path ~config:"cfg-1" () with
  | Error e -> Alcotest.fail e
  | Ok (_, loaded, _) ->
      check Alcotest.int "valid records kept, torn ones skipped" 2
        (List.length loaded)

let test_journal_append_after_load () =
  (* load must truncate a torn tail and position appends after the last
     valid record, so a resumed coordinator keeps writing the same
     journal in place (O(1) appends, no rewrite). *)
  let path = Filename.temp_file "journal" ".jsonl" in
  let j = Journal.create ~path ~config:"cfg-1" () in
  Journal.append j (ev_started "app-a");
  Journal.append j (ev_finished "app-a");
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"event\":\"finis";
  close_out oc;
  (match Journal.load ~path ~config:"cfg-1" () with
  | Error e -> Alcotest.fail e
  | Ok (j2, loaded, _) ->
      check Alcotest.int "torn tail dropped" 2 (List.length loaded);
      Journal.append j2 (ev_started "app-b"));
  match Journal.load ~path ~config:"cfg-1" () with
  | Error e -> Alcotest.fail e
  | Ok (_, loaded, _) ->
      check
        Alcotest.(list string)
        "append lands after the surviving records"
        (List.map render [ ev_started "app-a"; ev_finished "app-a"; ev_started "app-b" ])
        (List.map (fun (_, ev) -> render ev) loaded)

(* Mid-file corruption: unlike a torn tail (the normal kill shape,
   silently dropped), a record damaged in the middle of the file is
   reported as an anomaly — and never raises. *)

let file_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun l ->
          Out_channel.output_string oc l;
          Out_channel.output_char oc '\n')
        lines)

let four_record_journal path =
  let j = Journal.create ~path ~config:"cfg-1" () in
  List.iter (Journal.append j)
    [ ev_started "a"; ev_finished "a"; ev_started "b"; ev_finished "b" ]

let flip_byte_mid s =
  let b = Bytes.of_string s in
  let i = String.length s / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

let test_journal_midfile_bitflip_reported () =
  let path = Filename.temp_file "journal" ".jsonl" in
  four_record_journal path;
  (match file_lines path with
  | header :: r1 :: rest -> write_lines path (header :: flip_byte_mid r1 :: rest)
  | _ -> Alcotest.fail "journal too short");
  (match Journal.read_lenient ~path with
  | Error e -> Alcotest.fail e
  | Ok (_, events, anomalies) ->
      check Alcotest.int "corrupt record dropped, rest kept" 3
        (List.length events);
      check Alcotest.int "one anomaly reported" 1 (List.length anomalies));
  (* load agrees: report-and-continue, never refuse the journal. *)
  match Journal.load ~path ~config:"cfg-1" () with
  | Error e -> Alcotest.fail e
  | Ok (_, loaded, anomalies) ->
      check Alcotest.int "load drops the same record" 3 (List.length loaded);
      check Alcotest.int "load reports the same anomaly" 1
        (List.length anomalies)

let test_journal_duplicated_line_tolerated () =
  let path = Filename.temp_file "journal" ".jsonl" in
  four_record_journal path;
  (match file_lines path with
  | header :: r1 :: rest -> write_lines path (header :: r1 :: r1 :: rest)
  | _ -> Alcotest.fail "journal too short");
  match Journal.read_lenient ~path with
  | Error e -> Alcotest.fail e
  | Ok (_, events, anomalies) ->
      (* The duplicate is a valid sealed record: it replays (last record
         wins downstream) without counting as corruption. *)
      check Alcotest.int "all records incl. duplicate load" 5
        (List.length events);
      check Alcotest.int "no anomaly" 0 (List.length anomalies)

let test_journal_interleaved_partial_record () =
  let path = Filename.temp_file "journal" ".jsonl" in
  four_record_journal path;
  (match file_lines path with
  | header :: r1 :: rest ->
      (* A partial record WITH its newline in the middle of the file:
         not the torn-tail shape, so it must be reported. *)
      write_lines path (header :: r1 :: "{\"event\":\"finis" :: rest)
  | _ -> Alcotest.fail "journal too short");
  (match Journal.read_lenient ~path with
  | Error e -> Alcotest.fail e
  | Ok (_, events, anomalies) ->
      check Alcotest.int "surrounding records survive" 4 (List.length events);
      check Alcotest.int "partial record reported" 1 (List.length anomalies));
  match Journal.load ~path ~config:"cfg-1" () with
  | Error e -> Alcotest.fail e
  | Ok (j2, _, _) -> Journal.append j2 (ev_started "c")

(* Lines a writer does not produce: records without a "c" seal (stamps
   only on the finished ones), and a sealed record whose txs was edited
   and whose "c" member was renamed, so no seal is left to check.  Under
   a sealed header each is an anomaly that --resume drops too; under an
   unsealed header of their own, the journal does not load. *)
let test_journal_unsealed_record_anomaly () =
  let path = Filename.temp_file "journal" ".jsonl" in
  let key = String.make 32 'a' in
  let started app =
    Printf.sprintf {|{"event":"started","app":"%s","key":"%s","attempt":1}|}
      app key
  and finished app =
    Printf.sprintf
      {|{"event":"finished","app":"%s","key":"%s","status":"ok","cached":false,"attempts":1,"txs":4,"t":2.5}|}
      app key
  in
  let unsealed = [ started "a"; finished "a"; started "b"; finished "b" ] in
  let replace ~sub ~by s =
    let n = String.length sub in
    let rec find i = if String.sub s i n = sub then i else find (i + 1) in
    let i = find 0 in
    String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  in
  let renamed =
    Journal.line_of_event ~stamp:3.0 (ev_finished "c")
    |> replace ~sub:{|"txs":4|} ~by:{|"txs":9|}
    |> replace ~sub:{|,"c":"|} ~by:{|,"x":"|}
  in
  write_lines path
    ((Journal.header_line ~config:"cfg-1" () :: unsealed) @ [ renamed ]);
  (match Journal.read_lenient ~path with
  | Error e -> Alcotest.fail e
  | Ok (config, records, anomalies) ->
      check Alcotest.(option string) "header config" (Some "cfg-1") config;
      check Alcotest.int "no unsealed record accepted" 0 (List.length records);
      check Alcotest.(list int) "each one is an anomaly" [ 2; 3; 4; 5; 6 ]
        (List.map (fun a -> a.Journal.an_line) anomalies));
  (match Journal.load ~path ~config:"cfg-1" () with
  | Error e -> Alcotest.fail e
  | Ok (_, records, anomalies) ->
      check Alcotest.int "--resume drops them" 0 (List.length records);
      check Alcotest.int "and reports each" 5 (List.length anomalies));
  write_lines path ({|{"event":"run-started","config":"cfg-1"}|} :: unsealed);
  match Journal.read_lenient ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a journal under an unsealed header loaded"

let test_journal_finished_excludes_restarted () =
  let events =
    [ ev_started "a"; ev_finished "a"; ev_started "b"; ev_finished "b";
      ev_started "a" (* a started again after finishing *) ]
  in
  let outcomes = Journal.outcomes (List.map (fun ev -> (0., ev)) events) in
  check
    Alcotest.(list string)
    "one outcome per app, in order of first appearance" [ "a"; "b" ]
    (List.map (fun o -> o.Journal.oc_app) outcomes);
  check
    Alcotest.(list string)
    "only apps whose last record is finished" [ "b" ]
    (List.filter_map
       (fun o ->
         Option.map (fun _ -> o.Journal.oc_app) o.Journal.oc_finished)
       outcomes)

(* ------------------------------------------------------------------ *)
(* Content-addressed store                                            *)
(* ------------------------------------------------------------------ *)

let corpus_apk n = Lazy.force (List.nth (Corpus.table1 ()) n).Corpus.c_apk

let test_key_sensitivity () =
  let apk1 = corpus_apk 0 and apk2 = corpus_apk 1 in
  check Alcotest.bool "same input, same key" true
    (Store.key ~config:"c" apk1 = Store.key ~config:"c" apk1);
  check Alcotest.bool "config moves the key" false
    (Store.key ~config:"c" apk1 = Store.key ~config:"c'" apk1);
  check Alcotest.bool "analysis version moves the key" false
    (Store.key ~version:1 ~config:"c" apk1
    = Store.key ~version:2 ~config:"c" apk1);
  check Alcotest.bool "program moves the key" false
    (Store.key ~config:"c" apk1 = Store.key ~config:"c" apk2)

(* Golden keys.  Every cache entry on disk is addressed by one of these
   digests, so a change to the program printer or the key header that
   moves a key silently orphans every cache; it must fail here instead. *)
let golden_key (e : Corpus.entry) =
  Store.key_to_string (Store.key ~config:"c" (Lazy.force e.Corpus.c_apk))

let md5_hex s = Digest.to_hex (Digest.string s)

let test_key_golden () =
  let table1 = Corpus.table1 () in
  let gen = Corpus.generated ~seed:1 ~count:200 in
  check Alcotest.string "Diode" "ca97bde22abcd0f8926af27bed2f4b92"
    (golden_key (List.hd table1));
  check Alcotest.string "gen0001, seed 1" "878ef252f8dbc71e79dc363895a2254c"
    (golden_key (List.hd gen));
  check Alcotest.string "200 generated keys" "1c0eb4a99785f69579ad1513a3f8bedb"
    (md5_hex (String.concat "\n" (List.map golden_key gen)));
  check Alcotest.string "Table-1 keys" "a337c07cfa287cd9873ea381095e46fd"
    (md5_hex (String.concat "\n" (List.map golden_key table1)));
  check Alcotest.string "printed programs" "1bce396da341c8fbf0f68add0c1b021f"
    (md5_hex
       (String.concat ""
          (List.map
             (fun (e : Corpus.entry) ->
               Extr_ir.Pp.program_to_string (Lazy.force e.Corpus.c_apk).program)
             (Corpus.case_studies () @ table1))))

(* Header fields are escaped, so a field cannot forge a separator: a
   resource smuggling a newline and a second "res=" line, a '|' moved
   between manifest fields, a ',' inside one activity name and an empty
   activity name all yield different keys from the APK they imitate. *)
let test_key_header_escaped () =
  let base = corpus_apk 0 in
  let res r = { base with Extr_apk.Apk.resources = r } in
  let mf package label activities =
    {
      base with
      Extr_apk.Apk.manifest =
        {
          Extr_apk.Apk.mf_package = package;
          mf_label = label;
          mf_activities = activities;
        };
    }
  in
  let differ name a b =
    check Alcotest.bool name false
      (Store.key ~config:"c" a = Store.key ~config:"c" b)
  in
  differ "newline in a resource"
    (res [ (1, "x\nres=2:y") ])
    (res [ (1, "x"); (2, "y") ]);
  differ "'|' in the package" (mf "a|b" "c" []) (mf "a" "b|c" []);
  differ "'|' in the label" (mf "a" "b|c" [ "d" ]) (mf "a" "b" [ "c|d" ]);
  differ "',' in an activity" (mf "a" "b" [ "x,y" ]) (mf "a" "b" [ "x"; "y" ]);
  differ "empty activity" (mf "a" "b" [ "" ]) (mf "a" "b" []);
  differ "'%' in the label" (mf "a" "b%7C" []) (mf "a" "b|" [])

let test_key_of_string () =
  let k = Store.key ~config:"c" (corpus_apk 0) in
  (match Store.key_of_string (Store.key_to_string k) with
  | Some k' -> check Alcotest.bool "round trip" true (k = k')
  | None -> Alcotest.fail "a real key must validate");
  check Alcotest.bool "wrong length rejected" true
    (Store.key_of_string "abc123" = None);
  check Alcotest.bool "non-hex rejected" true
    (Store.key_of_string (String.make 32 'z') = None)

let test_store_round_trip_and_metrics () =
  let t = Store.open_ ~dir:(Filename.concat (tmp_dir ()) "cache") () in
  let k = Store.key ~config:"c" (corpus_apk 0) in
  Metrics.set_enabled Metrics.default true;
  Metrics.reset Metrics.default;
  check Alcotest.(option string) "miss before store" None (Store.find t k);
  Store.store t k "{\"payload\":1}";
  check
    Alcotest.(option string)
    "hit after store" (Some "{\"payload\":1}") (Store.find t k);
  let count name =
    List.fold_left
      (fun acc (s : Metrics.sample) ->
        if s.Metrics.sa_name = name then acc + s.Metrics.sa_count else acc)
      0
      (Metrics.snapshot Metrics.default)
  in
  check Alcotest.int "one miss counted" 1 (count "cache.misses");
  check Alcotest.int "one hit counted" 1 (count "cache.hits");
  Metrics.set_enabled Metrics.default false

let test_store_seal_round_trip () =
  check (Alcotest.result Alcotest.string Alcotest.string) "seal round-trips"
    (Ok "{\"payload\":1}")
    (Store.decode (Store.seal "{\"payload\":1}"));
  (match Store.decode "{\"payload\":1}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a headerless entry must not decode");
  match Store.decode (flip_byte_mid (Store.seal "{\"payload\":1}")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a flipped sealed entry must not decode"

let test_store_corrupt_entry_heals () =
  let dir = Filename.concat (tmp_dir ()) "cache" in
  let t = Store.open_ ~dir () in
  let k = Store.key ~config:"c" (corpus_apk 0) in
  Store.store t k "{\"payload\":1}";
  (* Rot the entry on disk: the next read must degrade to a miss, and
     re-storing must heal it. *)
  let path = Filename.concat dir (Store.key_to_string k ^ ".json") in
  let raw = In_channel.with_open_text path In_channel.input_all in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (flip_byte_mid raw));
  check Alcotest.(option string) "corrupt entry reads as a miss" None
    (Store.find t k);
  Store.store t k "{\"payload\":1}";
  check
    Alcotest.(option string)
    "re-store heals the entry" (Some "{\"payload\":1}") (Store.find t k)

let test_store_audit () =
  let dir = Filename.concat (tmp_dir ()) "cache" in
  let t = Store.open_ ~dir () in
  let k1 = Store.key ~config:"c" (corpus_apk 0) in
  let k2 = Store.key ~config:"c" (corpus_apk 1) in
  Store.store t k1 "{\"payload\":1}";
  Store.store t k2 "{\"payload\":2}";
  check (Alcotest.pair Alcotest.int (Alcotest.list Alcotest.(pair string string)))
    "clean cache audits clean" (2, [])
    (Store.audit ~dir);
  let victim = Filename.concat dir (Store.key_to_string k1 ^ ".json") in
  let raw = In_channel.with_open_text victim In_channel.input_all in
  Out_channel.with_open_text victim (fun oc ->
      Out_channel.output_string oc (flip_byte_mid raw));
  let total, corrupt = Store.audit ~dir in
  check Alcotest.int "all entries checked" 2 total;
  match corrupt with
  | [ (name, _) ] ->
      check Alcotest.string "the rotted entry is named"
        (Store.key_to_string k1 ^ ".json")
        name
  | l -> Alcotest.failf "expected 1 corrupt entry, got %d" (List.length l)

let test_sweep_orphaned_temps () =
  let dir = tmp_dir () in
  let write name contents =
    Out_channel.with_open_text (Filename.concat dir name) (fun oc ->
        Out_channel.output_string oc contents)
  in
  write ".orphan.json.123.1.abc123.tmp" "{\"half";
  write ".fresh.json.124.2.def456.tmp" "{\"half";
  write "keep.json" "{}";
  (* Age the orphan past the sweep floor; the fresh temp stays young
     (a live writer's interim file must survive the sweep). *)
  let old = Unix.gettimeofday () -. 7200.0 in
  Unix.utimes (Filename.concat dir ".orphan.json.123.1.abc123.tmp") old old;
  let swept = Export.sweep_temps ~dir () in
  check Alcotest.int "one orphan swept" 1 swept;
  check Alcotest.bool "stale orphan removed" false
    (Sys.file_exists (Filename.concat dir ".orphan.json.123.1.abc123.tmp"));
  check Alcotest.bool "fresh temp kept" true
    (Sys.file_exists (Filename.concat dir ".fresh.json.124.2.def456.tmp"));
  check Alcotest.bool "real artifact kept" true
    (Sys.file_exists (Filename.concat dir "keep.json"));
  (* Store.open_ runs the same sweep on startup. *)
  Unix.utimes (Filename.concat dir ".fresh.json.124.2.def456.tmp") old old;
  ignore (Store.open_ ~dir ());
  check Alcotest.bool "open_ sweeps aged temps" false
    (Sys.file_exists (Filename.concat dir ".fresh.json.124.2.def456.tmp"))

(* ------------------------------------------------------------------ *)
(* Runner                                                             *)
(* ------------------------------------------------------------------ *)

(* Two small corpus apps keep the in-process scenarios fast. *)
let entries () =
  match Corpus.table1 () with
  | a :: b :: _ -> [ a; b ]
  | _ -> Alcotest.fail "corpus too small"

let quiet_options () =
  {
    Runner.default_options with
    Runner.ro_sleep = fst (Clock.sleep_recording ());
  }

let run_ok options entries =
  match Runner.run options entries with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_runner_clean_run () =
  let r = run_ok (quiet_options ()) (entries ()) in
  check Alcotest.int "exit code 0" 0 (Runner.exit_code r);
  check Alcotest.int "both apps ran" 2 (List.length r.Runner.rn_results);
  List.iter
    (fun (a : Runner.app_result) ->
      check Alcotest.bool "fresh result" false a.Runner.ar_cached;
      check Alcotest.bool "has a report" true (a.Runner.ar_report_json <> None))
    r.Runner.rn_results

(* The injected crash reaches a pool worker through the plan it
   inherits on fork, so the same contract holds at both widths; the
   coordinator's own copy never fires under the pool, hence the reset
   after each run. *)
let test_runner_quarantine_exit_code () =
  let es = entries () in
  let victim = (List.hd es).Corpus.c_app.Spec.a_name in
  List.iter
    (fun jobs ->
      Fault.arm ~site:"app.crash" ~mode:victim ();
      let r =
        Fun.protect ~finally:Fault.reset (fun () ->
            run_ok { (quiet_options ()) with Runner.ro_jobs = jobs } es)
      in
      check Alcotest.int "exit code 2" 2 (Runner.exit_code r);
      check Alcotest.(list string) "victim quarantined" [ victim ]
        r.Runner.rn_quarantined;
      match r.Runner.rn_results with
      | q :: rest ->
          check Alcotest.bool "crash recorded" true (q.Runner.ar_crash <> None);
          check Alcotest.int "one crash retry" 2 q.Runner.ar_attempts;
          List.iter
            (fun (a : Runner.app_result) ->
              check Alcotest.bool "others unaffected" true
                (a.Runner.ar_status <> Runner.Quarantined))
            rest
      | [] -> Alcotest.fail "no results")
    [ 1; 2 ]

let test_runner_degraded_exit_code () =
  let o = quiet_options () in
  let o =
    {
      o with
      Runner.ro_pipeline =
        {
          o.Runner.ro_pipeline with
          Runner.Pipeline.op_limits =
            { Budget.bl_max_steps = 200; bl_max_depth = 24; bl_deadline_s = None };
        };
      ro_policy = Retry.no_retry;
    }
  in
  let r = run_ok o (entries ()) in
  check Alcotest.int "exit code 3" 3 (Runner.exit_code r)

let test_runner_warm_cache () =
  let dir = tmp_dir () in
  let o = { (quiet_options ()) with Runner.ro_cache_dir = Some dir } in
  let cold = run_ok o (entries ()) in
  let warm = run_ok o (entries ()) in
  List.iter2
    (fun (c : Runner.app_result) (w : Runner.app_result) ->
      check Alcotest.bool "cold run analyzed" false c.Runner.ar_cached;
      check Alcotest.bool "warm run cached" true w.Runner.ar_cached;
      check Alcotest.int "no attempts on a hit" 0 w.Runner.ar_attempts;
      check
        Alcotest.(option string)
        "identical report bytes" c.Runner.ar_report_json
        w.Runner.ar_report_json)
    cold.Runner.rn_results warm.Runner.rn_results

let test_runner_resume_byte_identical () =
  let dir = tmp_dir () in
  let journal = Filename.concat dir "journal.jsonl" in
  let o =
    {
      (quiet_options ()) with
      Runner.ro_journal = Some journal;
      ro_cache_dir = Some (Filename.concat dir "cache");
    }
  in
  (* Kill the run inside the second app's interpretation phase. *)
  Fault.arm ~site:"pipeline.interpretation" ~occurrence:2 ~mode:"kill" ();
  (match Runner.run o (entries ()) with
  | exception Barrier.Killed -> ()
  | _ ->
      Fault.reset ();
      Alcotest.fail "kill-point did not fire");
  Fault.reset ();
  let resumed = run_ok { o with Runner.ro_resume = true } (entries ()) in
  (match resumed.Runner.rn_results with
  | first :: second :: _ ->
      check Alcotest.bool "first app restored from the journal" true
        first.Runner.ar_resumed;
      check Alcotest.bool "second app re-ran" false second.Runner.ar_resumed
  | _ -> Alcotest.fail "missing results");
  (* An untouched run over fresh state must serialize identically. *)
  let dir2 = tmp_dir () in
  let o2 =
    {
      (quiet_options ()) with
      Runner.ro_journal = Some (Filename.concat dir2 "journal.jsonl");
      ro_cache_dir = Some (Filename.concat dir2 "cache");
    }
  in
  let cold = run_ok o2 (entries ()) in
  let config = Runner.config_fingerprint o in
  check Alcotest.string "byte-identical report envelope"
    (Runner.report_json ~config cold)
    (Runner.report_json ~config resumed)

let test_runner_resume_refuses_config_mismatch () =
  let dir = tmp_dir () in
  let journal = Filename.concat dir "journal.jsonl" in
  let o = { (quiet_options ()) with Runner.ro_journal = Some journal } in
  let _ = run_ok o (entries ()) in
  let changed =
    {
      o with
      Runner.ro_resume = true;
      ro_policy = { Retry.rp_max_attempts = 7 };
    }
  in
  (match Runner.run changed (entries ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resume under a different retry policy must refuse");
  match Runner.run { o with Runner.ro_resume = true; ro_journal = None } [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resume without a journal must refuse"

let test_runner_interrupt_partial () =
  let o = quiet_options () in
  (* A SIGINT mid-corpus surfaces as Barrier.Interrupted; the runner must
     return the completed prefix, flagged, with the documented exit.
     The handler raises wherever the process happens to be, so raise it
     from the phase observer at the 2nd interpretation phase. *)
  let seen = ref 0 in
  Barrier.set_observer (fun p ->
      if p = "pipeline.interpretation" then begin
        incr seen;
        if !seen = 2 then raise Barrier.Interrupted
      end);
  let r = run_ok o (entries ()) in
  Barrier.clear_observer ();
  check Alcotest.bool "interrupted flag" true r.Runner.rn_interrupted;
  check Alcotest.int "only the first app completed" 1
    (List.length r.Runner.rn_results);
  check Alcotest.int "exit code 130" 130 (Runner.exit_code r)

let test_runner_rejects_bad_hang_timeout () =
  List.iter
    (fun t ->
      match
        Runner.run
          { (quiet_options ()) with Runner.ro_hang_timeout = Some t }
          (entries ())
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "--hang-timeout %g accepted" t)
    [ 0.; -1.; Float.nan ]

(* An unwritable --journal is a usage error like a bad --cache-dir:
   refused, naming the flag, before any app runs. *)
let test_runner_rejects_unwritable_journal () =
  let path = Filename.concat (tmp_dir ()) "missing/journal.jsonl" in
  let ran = ref 0 in
  match
    Runner.run
      ~on_result:(fun _ -> incr ran)
      { (quiet_options ()) with Runner.ro_journal = Some path }
      (entries ())
  with
  | Error msg ->
      check Alcotest.bool "the message names --journal" true
        (String.length msg >= 9 && String.sub msg 0 9 = "--journal");
      check Alcotest.int "no app ran" 0 !ran
  | Ok _ -> Alcotest.fail "an unwritable journal was accepted"

let test_runner_materialization_crash_quarantined () =
  (* APK materialization (Lazy.force + cache keying) runs inside the
     fault barrier: a malformed spec must quarantine that app with a
     "codegen"-phase crash, not escape the corpus loop. *)
  let es = entries () in
  let bad =
    {
      Corpus.c_app = (List.nth es 1).Corpus.c_app;
      c_apk = lazy (failwith "malformed spec");
      c_row = None;
    }
  in
  let r = run_ok (quiet_options ()) [ List.hd es; bad ] in
  check Alcotest.int "exit code 2" 2 (Runner.exit_code r);
  match r.Runner.rn_results with
  | [ good; q ] -> (
      check Alcotest.bool "healthy app unaffected" true
        (good.Runner.ar_status <> Runner.Quarantined);
      check Alcotest.bool "bad app quarantined" true
        (q.Runner.ar_status = Runner.Quarantined);
      match q.Runner.ar_crash with
      | Some c ->
          check Alcotest.string "crash phase" "codegen" c.Barrier.cr_phase;
          check Alcotest.bool "crash carries the exception" true
            (c.Barrier.cr_exn <> "")
      | None -> Alcotest.fail "quarantined app has no crash record")
  | _ -> Alcotest.fail "expected two results"

let test_runner_warm_cache_recovers_degradations () =
  (* Cache hits splice the report bytes back verbatim; the summary's
     degradation column must come back too (parsed from the report
     JSON), not reset to empty. *)
  let o = quiet_options () in
  let o =
    {
      o with
      Runner.ro_cache_dir = Some (tmp_dir ());
      ro_pipeline =
        {
          o.Runner.ro_pipeline with
          Runner.Pipeline.op_limits =
            { Budget.bl_max_steps = 200; bl_max_depth = 24; bl_deadline_s = None };
        };
      ro_policy = Retry.no_retry;
    }
  in
  let cold = run_ok o (entries ()) in
  let warm = run_ok o (entries ()) in
  check Alcotest.bool "workload actually degrades" true
    (List.exists
       (fun (a : Runner.app_result) -> a.Runner.ar_degradations <> [])
       cold.Runner.rn_results);
  List.iter2
    (fun (c : Runner.app_result) (w : Runner.app_result) ->
      check Alcotest.bool "warm run cached" true w.Runner.ar_cached;
      check Alcotest.bool "degradations recovered from the report" true
        (c.Runner.ar_degradations = w.Runner.ar_degradations))
    cold.Runner.rn_results warm.Runner.rn_results

(* ------------------------------------------------------------------ *)
(* Worker pool                                                        *)
(* ------------------------------------------------------------------ *)

(* Enough apps that 2 workers see more than one task each. *)
let pool_entries () =
  match Corpus.table1 () with
  | a :: b :: c :: d :: _ -> [ a; b; c; d ]
  | _ -> Alcotest.fail "corpus too small"

let report o r = Runner.report_json ~config:(Runner.config_fingerprint o) r

let test_pool_byte_identical () =
  let es = pool_entries () in
  let o = quiet_options () in
  let seq = run_ok o es in
  let par = run_ok { o with Runner.ro_jobs = 4 } es in
  check Alcotest.int "same exit code" (Runner.exit_code seq)
    (Runner.exit_code par);
  check Alcotest.string "byte-identical report envelope" (report o seq)
    (report o par)

(* A pool worker must not keep a finished task's APK reachable, or its
   heap grows with every app it runs.  Each entry's lazy first checks,
   after a full major collection, that the APK an earlier task forced in
   the same process is gone, then registers its own; a leak fails the
   lazy, and the app is quarantined.  The entry list is built in the
   call, so the test itself holds none of it. *)
let test_pool_workers_drop_finished_apks () =
  let last = Weak.create 1 in
  let watched (e : Corpus.entry) =
    let app = e.Corpus.c_app in
    {
      e with
      Corpus.c_apk =
        lazy
          (Gc.full_major ();
           if Weak.check last 0 then
             failwith "an earlier task's APK is still reachable";
           let apk = Corpus.apk_of_app app in
           Weak.set last 0 (Some apk);
           apk);
    }
  in
  let r =
    run_ok
      { (quiet_options ()) with Runner.ro_jobs = 2 }
      (List.map watched (Corpus.generated ~seed:7 ~count:8))
  in
  check Alcotest.(list string) "no app quarantined" [] r.Runner.rn_quarantined;
  check Alcotest.int "every app ran" 8 (List.length r.Runner.rn_results)

let test_pool_worker_death_quarantines () =
  let es = pool_entries () in
  let victim = (List.nth es 2).Corpus.c_app.Spec.a_name in
  Fault.arm ~site:"worker.exit" ~mode:victim ();
  let r =
    Fun.protect ~finally:Fault.reset (fun () ->
        run_ok { (quiet_options ()) with Runner.ro_jobs = 2 } es)
  in
  check Alcotest.int "exit code 2" 2 (Runner.exit_code r);
  check Alcotest.(list string) "only the in-flight app quarantined" [ victim ]
    r.Runner.rn_quarantined;
  List.iter
    (fun (a : Runner.app_result) ->
      if a.Runner.ar_app = victim then (
        check Alcotest.bool "victim quarantined" true
          (a.Runner.ar_status = Runner.Quarantined);
        match a.Runner.ar_crash with
        | Some c -> check Alcotest.string "crash phase" "worker" c.Barrier.cr_phase
        | None -> Alcotest.fail "victim has no crash record")
      else
        check Alcotest.bool "other apps survive the worker death" true
          (a.Runner.ar_status <> Runner.Quarantined))
    r.Runner.rn_results

let test_pool_kill_resume_byte_identical () =
  let es = pool_entries () in
  let dir = tmp_dir () in
  let o =
    {
      (quiet_options ()) with
      Runner.ro_jobs = 2;
      ro_journal = Some (Filename.concat dir "journal.jsonl");
      ro_cache_dir = Some (Filename.concat dir "cache");
    }
  in
  (* 4 tasks over 2 workers: some worker runs a second app and trips the
     per-process kill (the plan is inherited through fork), exits 99, and
     the coordinator re-raises Killed after tearing the pool down. *)
  Fault.arm ~site:"pipeline.interpretation" ~occurrence:2 ~mode:"kill" ();
  (match Runner.run o es with
  | exception Barrier.Killed -> ()
  | _ ->
      Fault.reset ();
      Alcotest.fail "kill-point did not fire under the pool");
  Fault.reset ();
  let resumed = run_ok { o with Runner.ro_resume = true } es in
  check Alcotest.bool "journal restored at least one app" true
    (List.exists
       (fun (a : Runner.app_result) -> a.Runner.ar_resumed)
       resumed.Runner.rn_results);
  (* The parallel resumed run must serialize exactly like an untouched
     sequential run over fresh state. *)
  let dir2 = tmp_dir () in
  let o2 =
    {
      (quiet_options ()) with
      Runner.ro_journal = Some (Filename.concat dir2 "journal.jsonl");
      ro_cache_dir = Some (Filename.concat dir2 "cache");
    }
  in
  let cold = run_ok o2 es in
  check Alcotest.string "byte-identical report envelope" (report o2 cold)
    (report o resumed)

(* Group commit, observed from outside, at both widths: every record an
   observer sees, and every published result's Finished record, is
   already in the journal file; the pool syncs no more often than once
   per record, and a sequential run once per app. *)
let test_pool_publishes_only_journaled_records () =
  let apps = 12 in
  List.iter
    (fun jobs ->
      let dir = tmp_dir () in
      let path = Filename.concat dir "journal.jsonl" in
      let records () =
        match Journal.read_lenient ~path with
        | Ok (_, records, _) -> List.map snd records
        | Error e -> Alcotest.fail e
      in
      let o =
        {
          (quiet_options ()) with
          Runner.ro_jobs = jobs;
          ro_journal = Some path;
          ro_cache_dir = Some (Filename.concat dir "cache");
        }
      in
      Metrics.set_enabled Metrics.default true;
      Metrics.reset Metrics.default;
      let observed = ref 0 in
      let r =
        Fun.protect
          ~finally:(fun () -> Metrics.set_enabled Metrics.default false)
          (fun () ->
            match
              Runner.run
                ~on_journal:(fun ~at:_ ev ->
                  incr observed;
                  if not (List.mem ev (records ())) then
                    Alcotest.failf "observer saw an unjournaled record: %s"
                      (Fmt.str "%a" Journal.pp_event ev))
                ~on_result:(fun a ->
                  if
                    not
                      (List.exists
                         (function
                           | Journal.Finished f -> f.ev_app = a.Runner.ar_app
                           | _ -> false)
                         (records ()))
                  then
                    Alcotest.failf "%s published before its Finished record"
                      a.Runner.ar_app)
                o
                (Corpus.generated ~seed:1 ~count:apps)
            with
            | Ok r -> r
            | Error e -> Alcotest.fail e)
      in
      check Alcotest.int "every app published" apps
        (List.length r.Runner.rn_results);
      let n = List.length (records ()) in
      check Alcotest.int "the observer saw every record" n !observed;
      let fsyncs =
        int_of_float (Metrics.value Metrics.default "journal.fsyncs")
      in
      if jobs = 1 then
        check Alcotest.int "one fsync per app sequentially" apps fsyncs
      else
        check Alcotest.bool
          (Printf.sprintf "1 <= %d fsyncs <= %d records" fsyncs n)
          true
          (fsyncs >= 1 && fsyncs <= n))
    [ 1; 2 ]

(* A cache write that fails costs only its entry: the run finishes
   clean, its envelope equals an uncached run's, and the failed write
   leaves no temp file behind.  The store runs in the coordinator at
   both widths, where the one-shot fault is armed. *)
let test_cache_write_failure_costs_only_the_entry () =
  let es = pool_entries () in
  let o = quiet_options () in
  let uncached = report o (run_ok o es) in
  List.iter
    (fun jobs ->
      let dir = tmp_dir () in
      Fault.arm ~site:"export.write" ~mode:"enospc" ();
      let r =
        Fun.protect ~finally:Fault.reset (fun () ->
            run_ok
              { o with Runner.ro_jobs = jobs; ro_cache_dir = Some dir }
              es)
      in
      let files = Array.to_list (Sys.readdir dir) in
      let with_suffix x =
        List.filter (fun f -> Filename.check_suffix f x) files
      in
      check Alcotest.int "exit code 0" 0 (Runner.exit_code r);
      check Alcotest.string "envelope equals an uncached run's" uncached
        (report o r);
      check Alcotest.int "every other entry written" 3
        (List.length (with_suffix ".json"));
      check Alcotest.(list string) "no temp file left" [] (with_suffix ".tmp"))
    [ 1; 2 ]

let () =
  Alcotest.run "durability"
    [
      ( "retry",
        [
          tc "escalation widens and saturates" test_escalate;
          tc "degraded rung escalates then succeeds"
            test_ladder_escalates_then_succeeds;
          tc "exhausted ladder stays degraded"
            test_ladder_exhausts_still_degraded;
          tc "crash retried once then quarantined"
            test_crash_retried_once_then_quarantined;
          tc "no_retry runs exactly once" test_no_retry_policy;
        ] );
      ( "journal",
        [
          tc "events round-trip" test_journal_round_trip;
          tc "config mismatch refused" test_journal_config_mismatch_refused;
          tc "torn trailing lines skipped"
            test_journal_skips_torn_trailing_line;
          tc "append lands after a torn tail" test_journal_append_after_load;
          tc "mid-file bit flip reported and dropped"
            test_journal_midfile_bitflip_reported;
          tc "duplicated line tolerated" test_journal_duplicated_line_tolerated;
          tc "interleaved partial record reported"
            test_journal_interleaved_partial_record;
          tc "an unsealed record is an anomaly"
            test_journal_unsealed_record_anomaly;
          tc "finished excludes restarted apps"
            test_journal_finished_excludes_restarted;
        ] );
      ( "store",
        [
          tc "key sensitivity" test_key_sensitivity;
          tc "golden keys" test_key_golden;
          tc "header fields escaped" test_key_header_escaped;
          tc "key validation" test_key_of_string;
          tc "integrity seal round-trips" test_store_seal_round_trip;
          tc "corrupt entry degrades to a miss and heals"
            test_store_corrupt_entry_heals;
          tc "audit names rotted entries" test_store_audit;
          tc "startup sweep removes orphaned temps" test_sweep_orphaned_temps;
          tc "round trip and hit/miss metrics"
            test_store_round_trip_and_metrics;
        ] );
      ( "runner",
        [
          tc "clean corpus exits 0" test_runner_clean_run;
          tc "repeat crash quarantines and exits 2"
            test_runner_quarantine_exit_code;
          tc "degradation exits 3" test_runner_degraded_exit_code;
          tc "warm cache restores identical bytes" test_runner_warm_cache;
          tc "kill + resume is byte-identical" test_runner_resume_byte_identical;
          tc "resume refuses a changed configuration"
            test_runner_resume_refuses_config_mismatch;
          tc "interrupt returns partial results" test_runner_interrupt_partial;
          tc "hang timeout that is not positive refused"
            test_runner_rejects_bad_hang_timeout;
          tc "unwritable journal refused"
            test_runner_rejects_unwritable_journal;
          tc "materialization crash quarantined behind the barrier"
            test_runner_materialization_crash_quarantined;
          tc "warm cache recovers degradations"
            test_runner_warm_cache_recovers_degradations;
        ] );
      ( "pool",
        [
          tc "parallel report byte-identical to sequential"
            test_pool_byte_identical;
          tc "worker death quarantines only the in-flight app"
            test_pool_worker_death_quarantines;
          tc "workers drop the APKs of finished tasks"
            test_pool_workers_drop_finished_apks;
          tc "observers and results follow the journal"
            test_pool_publishes_only_journaled_records;
          tc "a failed cache write costs only its entry"
            test_cache_write_failure_costs_only_the_entry;
          tc "parallel kill + resume is byte-identical"
            test_pool_kill_resume_byte_identical;
        ] );
    ]
