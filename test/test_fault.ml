(* The fault-injection plan and the pool's hung-worker watchdog.  The
   plan tests are pure; the watchdog tests fork real workers through
   Pool.run with a wedged task and assert detection, requeue-once, and
   the Hung quarantine — all on sub-second timeouts so the suite stays
   fast. *)

module Fault = Extr_resilience.Fault
module Pool = Extr_eval.Pool

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
        ] );
    ]
