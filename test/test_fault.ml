(* The fault-injection plan, the pool's hung-worker watchdog and its
   group-commit contract.  The plan tests are pure; the watchdog tests
   fork real workers through Pool.run with a wedged task and assert
   detection, requeue-once, and the Hung quarantine — all on sub-second
   timeouts so the suite stays fast — and count a runner pool's
   heartbeat frames with and without a watchdog.  The commit tests fork
   real workers under a clock that stands still, so no commit window
   ever closes. *)

module Fault = Extr_resilience.Fault
module Pool = Extr_eval.Pool
module Runner = Extr_eval.Runner
module Corpus = Extr_corpus.Corpus
module Clock = Extr_telemetry.Clock
module Metrics = Extr_telemetry.Metrics

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Fault plan                                                          *)
(* ------------------------------------------------------------------ *)

let test_parse () =
  let spec = Alcotest.(result (triple string int string) string) in
  check spec "bare site"
    (Ok ("export.write", 1, ""))
    (Fault.parse "export.write");
  check spec "site, occurrence and mode"
    (Ok ("journal.append", 3, "torn"))
    (Fault.parse "journal.append@3:torn");
  check spec
    "mode may contain spaces and colons keep splitting at the first"
    (Ok ("worker.spin", 1, "radio reddit"))
    (Fault.parse "worker.spin:radio reddit");
  check spec
    "a phase site with an occurrence and the kill mode"
    (Ok ("pipeline.interpretation", 2, "kill"))
    (Fault.parse "pipeline.interpretation@2:kill");
  check spec "an app-targeted site"
    (Ok ("app.crash", 1, "radio reddit"))
    (Fault.parse "app.crash:radio reddit");
  (match Fault.parse "@2:torn" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty site must not parse");
  match Fault.parse "journal.append@zero" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric occurrence must not parse"

let test_fire_occurrence_and_one_shot () =
  Fault.reset ();
  Fault.arm ~site:"journal.append" ~occurrence:3 ~mode:"torn" ();
  check Alcotest.(option string) "hit 1" None (Fault.fire "journal.append");
  check Alcotest.(option string) "hit 2" None (Fault.fire "journal.append");
  check
    Alcotest.(option string)
    "hit 3 fires" (Some "torn") (Fault.fire "journal.append");
  check
    Alcotest.(option string)
    "fired entries disarm" None (Fault.fire "journal.append");
  check Alcotest.(option string) "other sites never match" None
    (Fault.fire "store.read");
  Fault.reset ()

let test_fire_arg_filter () =
  Fault.reset ();
  Fault.arm ~site:"worker.spin" ~mode:"target app" ();
  check Alcotest.(option string) "other apps pass" None
    (Fault.fire ~arg:"bystander" "worker.spin");
  check
    Alcotest.(option string)
    "the targeted app trips" (Some "target app")
    (Fault.fire ~arg:"target app" "worker.spin");
  Fault.reset ()

(* ------------------------------------------------------------------ *)
(* Watchdog                                                            *)
(* ------------------------------------------------------------------ *)

(* One wedged task among quick ones.  Task 0 spins without heartbeats;
   the watchdog must kill its worker, requeue it once, watch the
   replacement hang too, and resolve it as Hung — while tasks 1..3
   complete normally. *)
let test_watchdog_requeues_then_quarantines () =
  let results = Hashtbl.create 8 in
  let hangs = ref [] in
  let outcome =
    Pool.run ~jobs:2 ~tasks:[ 0; 1; 2; 3 ] ~hang_timeout:0.3
      ~on_hang:(fun ~task ~phase -> hangs := (task, phase) :: !hangs)
      ~worker:(fun ~emit:_ ~beat i ->
        if i = 0 then begin
          beat ~phase:"spin";
          while true do
            Unix.sleepf 0.01
          done
        end;
        i * 10)
      ~on_event:(fun (_ : unit) -> ())
      ~on_death:(fun ~task ~cause ->
        match cause with
        | Pool.Hung { hd_phase; _ } ->
            Hashtbl.replace results task (-1);
            check Alcotest.string "phase from the last heartbeat" "spin"
              hd_phase;
            -1
        | Pool.Died reason -> Alcotest.failf "unexpected death: %s" reason)
      ~on_result:(fun i r -> Hashtbl.replace results i r)
      ()
  in
  check Alcotest.bool "run completes" true (outcome = Pool.Completed);
  check
    Alcotest.(list (pair int string))
    "the wedged task was requeued exactly once"
    [ (0, "spin") ]
    !hangs;
  check Alcotest.int "wedged task resolved as hung" (-1)
    (Hashtbl.find results 0);
  List.iter
    (fun i ->
      check Alcotest.int
        (Printf.sprintf "task %d completed" i)
        (i * 10) (Hashtbl.find results i))
    [ 1; 2; 3 ]

(* Heartbeats keep a slow-but-alive worker off the watchdog's kill
   list: a task longer than the timeout survives as long as it beats. *)
let test_heartbeat_defers_the_watchdog () =
  let outcome =
    Pool.run ~jobs:1 ~tasks:[ 0 ] ~hang_timeout:0.2
      ~worker:(fun ~emit:_ ~beat i ->
        for _ = 1 to 8 do
          Unix.sleepf 0.1;
          beat ~phase:"slow-but-alive"
        done;
        i)
      ~on_event:(fun (_ : unit) -> ())
      ~on_death:(fun ~task:_ ~cause:_ ->
        Alcotest.fail "a beating worker must never be killed")
      ~on_result:(fun _ r ->
        check Alcotest.int "slow task completed" 0 r)
      ()
  in
  check Alcotest.bool "run completes" true (outcome = Pool.Completed)

(* Heartbeats exist for the watchdog alone: a pooled corpus run sends
   none without a hang timeout, and one per phase transition with it. *)
let pooled_heartbeats hang_timeout =
  Metrics.reset Metrics.default;
  Metrics.set_enabled Metrics.default true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled Metrics.default false)
  @@ fun () ->
  let options =
    {
      Runner.default_options with
      Runner.ro_jobs = 2;
      ro_hang_timeout = hang_timeout;
    }
  in
  (match Runner.run options (Corpus.generated ~seed:1 ~count:4) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Metrics.value Metrics.default "pool.heartbeats"

let test_heartbeats_only_under_a_watchdog () =
  check (Alcotest.float 0.) "no watchdog, no heartbeat frames" 0.
    (pooled_heartbeats None);
  check Alcotest.bool "a watchdog gets heartbeats" true
    (pooled_heartbeats (Some 30.) > 0.)

(* ------------------------------------------------------------------ *)
(* Group commit                                                        *)
(* ------------------------------------------------------------------ *)

(* What the coordinator did, in order: an event handed to [on_event], a
   [commit ()], a result handed to [on_result].  Each task emits one
   event when it starts.  Time stands still, so every commit in the log
   was forced by a rule other than the window.  [on_result] leaves a
   marker file, as the runner leaves a cache entry, and a task whose
   dependency's marker is missing when it starts says so in its event
   ("event 1 early"); the commit takes 50 ms, as an fsync may, so a
   task dispatched before its dependency is handed over would start
   early. *)
let commit_log ?(deps = fun (_ : int) -> []) ~jobs tasks =
  let clock, _advance = Clock.manual () in
  let dir = Filename.temp_file "commit" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let marker i = Filename.concat dir (string_of_int i) in
  let log = ref [] in
  let note s = log := s :: !log in
  let outcome =
    Pool.run ~deps ~clock ~jobs ~tasks
      ~commit:(fun () ->
        note "commit";
        Unix.sleepf 0.05)
      ~worker:(fun ~emit ~beat:_ i ->
        let early =
          List.exists (fun d -> not (Sys.file_exists (marker d))) (deps i)
        in
        emit (Printf.sprintf "event %d%s" i (if early then " early" else ""));
        i)
      ~on_event:note
      ~on_death:(fun ~task:_ ~cause:_ -> Alcotest.fail "no worker may die")
      ~on_result:(fun i _ ->
        Out_channel.with_open_text (marker i) ignore;
        note (Printf.sprintf "result %d" i))
      ()
  in
  check Alcotest.bool "run completes" true (outcome = Pool.Completed);
  List.iter (fun i -> Sys.remove (marker i)) tasks;
  Sys.rmdir dir;
  List.rev !log

let kind s = List.hd (String.split_on_char ' ' s)

(* Independent tasks never force a commit before the last result: one
   commit covers every event, and every result waits for it. *)
let test_one_commit_covers_independent_tasks () =
  let log = commit_log ~jobs:2 (List.init 8 Fun.id) in
  check
    Alcotest.(list string)
    "8 events, one commit, then 8 results"
    (List.init 8 (fun _ -> "event")
    @ [ "commit" ]
    @ List.init 8 (fun _ -> "result"))
    (List.map kind log)

(* A chain cannot wait for the window: the idle worker's next task hangs
   on the held result, so each task is committed and handed over before
   its successor starts, and no successor starts early. *)
let test_chain_commits_per_task () =
  let log =
    commit_log ~deps:(fun i -> if i = 0 then [] else [ i - 1 ]) ~jobs:2
      [ 0; 1; 2; 3 ]
  in
  check
    Alcotest.(list string)
    "each task's event follows its predecessor's result"
    (List.concat_map
       (fun i ->
         [
           Printf.sprintf "event %d" i; "commit"; Printf.sprintf "result %d" i;
         ])
       [ 0; 1; 2; 3 ])
    log

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          tc "spec grammar" test_parse;
          tc "occurrence counting and one-shot disarm"
            test_fire_occurrence_and_one_shot;
          tc "arg filter targets one app" test_fire_arg_filter;
        ] );
      ( "watchdog",
        [
          tc "wedged task requeued once then quarantined hung"
            test_watchdog_requeues_then_quarantines;
          tc "heartbeats defer the watchdog" test_heartbeat_defers_the_watchdog;
          tc "runner heartbeats only under a watchdog"
            test_heartbeats_only_under_a_watchdog;
        ] );
      ( "pool",
        [
          tc "one commit covers independent tasks"
            test_one_commit_covers_independent_tasks;
          tc "a dependency chain commits once per task"
            test_chain_commits_per_task;
        ] );
    ]
