(* UI fuzzing baselines (§5.1).  Three policies drive the runtime:

     - [`Auto]: the PUMA analogue — launches the app and fires every plain
       clickable element it can recognize.  Custom UI widgets defeat it,
       side-effect actions are never performed, timers/pushes never fire.
     - [`Manual]: a human session — also drives custom UI (logging in,
       navigating custom widgets) but skips side-effect actions (payments,
       purchases), timers and pushes, and misses obscure deep links.
     - [`Full]: ground-truth execution — every trigger fires, including
       timers, server pushes and side-effect actions.

   The captured trace is the mitmproxy analogue: the full decrypted
   HTTP(S) transaction stream. *)

module Ir = Extr_ir.Types
module Http = Extr_httpmodel.Http
module Apk = Extr_apk.Apk
module Spec = Extr_corpus.Spec
module Runtime = Extr_runtime.Runtime
module Callbacks = Extr_semantics.Callbacks

type policy = [ `Auto | `Manual | `Full ]

let policy_name = function `Auto -> "auto" | `Manual -> "manual" | `Full -> "full"

(** Endpoint id encoded in a trampoline class name ("pkg.Click_e12" →
    "e12").  The fuzzers key UI decisions on the app spec, not on class
    names the analysis sees — this lookup stands in for inspecting the
    actual UI widget. *)
let endpoint_of_listener (app : Spec.app) (cls : string) : Spec.endpoint option =
  let base =
    match String.rindex_opt cls '.' with
    | Some i -> String.sub cls (i + 1) (String.length cls - i - 1)
    | None -> cls
  in
  match String.index_opt base '_' with
  | Some i ->
      let id = String.sub base (i + 1) (String.length base - i - 1) in
      Spec.find_endpoint app id
  | None -> None

(** Should this registration fire under the policy? *)
let fires (app : Spec.app) (policy : policy) (r : Runtime.registration) : bool =
  match r.Runtime.rg_event with
  | Callbacks.Location ->
      (* Location callbacks arrive whenever the framework has a fix. *)
      true
  | Callbacks.Timer | Callbacks.Push -> policy = `Full
  | Callbacks.Click -> (
      match endpoint_of_listener app r.Runtime.rg_listener.Extr_runtime.Rvalue.ro_cls with
      | Some e -> Spec.trigger_visible app ~policy e
      | None -> (
          (* Unknown listener: a plain clickable. *)
          match policy with
          | `Auto -> not app.Spec.a_auto_blocked
          | `Manual | `Full -> true))

let trigger_label (app : Spec.app) (r : Runtime.registration) : Http.trigger =
  let name = r.Runtime.rg_listener.Extr_runtime.Rvalue.ro_cls in
  match r.Runtime.rg_event with
  | Callbacks.Timer -> Http.Timer name
  | Callbacks.Push -> Http.Server_push name
  | Callbacks.Location -> Http.App_internal ("location:" ^ name)
  | Callbacks.Click -> (
      match endpoint_of_listener app name with
      | Some e -> (
          match e.Spec.e_trigger with
          | Spec.Tcustom -> Http.Ui_custom e.Spec.e_id
          | Spec.Taction -> Http.Ui_action e.Spec.e_id
          | Spec.Tclick | Spec.Tobscure -> Http.Ui_click e.Spec.e_id
          | Spec.Tentry | Spec.Ttimer | Spec.Tpush | Spec.Tinternal _ ->
              Http.Ui_click e.Spec.e_id)
      | None -> Http.Ui_click name)

(** Run an app under a policy and capture its traffic trace. *)
let run ?(input = fun () -> "2024070612345678") (app : Spec.app) (apk : Apk.t) ~policy :
    Http.trace =
  let net = Extr_server.Server.make app in
  let rt = Runtime.create ~net ~input apk in
  rt.Runtime.trigger <- Http.App_internal "launch";
  ignore (Runtime.launch rt);
  (* Drive registered callbacks; new registrations made during handling
     are picked up on later rounds (bounded). *)
  let fired = ref [] in
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < 8 do
    incr rounds;
    let pendings =
      List.filter
        (fun r -> not (List.memq r !fired))
        rt.Runtime.registrations
    in
    if pendings = [] then continue_ := false
    else
      List.iter
        (fun r ->
          fired := r :: !fired;
          if fires app policy r then begin
            rt.Runtime.trigger <- trigger_label app r;
            try Runtime.fire rt r
            with Runtime.Runtime_error _ -> ()
          end)
        pendings
  done;
  Runtime.captured_trace rt

(** Which endpoints appeared in a trace, identified by the server's
    [x-endpoint] annotation. *)
let observed_endpoints (trace : Http.trace) : string list =
  List.filter_map
    (fun (te : Http.trace_entry) ->
      match Http.header "x-endpoint" te.Http.te_tx.Http.tx_response.Http.resp_headers with
      | Some "?" | None -> None
      | Some id -> Some id)
    trace.Http.tr_entries
  |> List.sort_uniq String.compare
