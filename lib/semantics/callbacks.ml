(* Implicit call flows (§3.4): the one table of the callback protocol.
   Thread and HTTP libraries and the framework hand control back to app
   code that a plain call graph misses; each row below says which app
   methods a call or an event hands control to and what they receive. *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog

type event = Click | Timer | Push | Location
type passed = Nothing | Fresh of string | Payload
type source = Call_args | Previous | Response | Event of event
type carrier = Receiver | Arg of int | Action of int
type listener = { carrier : carrier; callbacks : (string * source) list }

let do_in_background = "doInBackground"
let on_post_execute = "onPostExecute"
let on_response = "onResponse"
let on_handle_intent = "onHandleIntent"

(* One row per event: the model that registers its listener, the
   callback the framework invokes when it fires, and what it passes. *)
let event_row = function
  | Click -> (Libmodel.On_click, "onClick", Fresh Api.view)
  | Timer -> (Libmodel.Timer_schedule, "run", Nothing)
  | Push -> (Libmodel.Push_subscribe, "onMessage", Payload)
  | Location -> (Libmodel.Location_updates, "onLocationChanged", Fresh Api.location)

let events = [ Click; Timer; Push; Location ]
let callback e = match event_row e with _, name, _ -> name

let event_args e ~fresh ~payload =
  match event_row e with
  | _, _, Nothing -> []
  | _, _, Fresh cls -> [ fresh cls ]
  | _, _, Payload -> [ payload ]

let table : (Api.model * listener) list =
  [
    (* execute(param) → doInBackground(param) → onPostExecute(result) *)
    ( Libmodel.Async_execute,
      {
        carrier = Receiver;
        callbacks = [ (do_in_background, Call_args); (on_post_execute, Previous) ];
      } );
    (* An app subclass of StringRequest may define onResponse itself. *)
    (Libmodel.Volley_add, { carrier = Arg 0; callbacks = [ (on_response, Response) ] });
    (* new StringRequest(method, url, listener) registers the listener. *)
    ( Libmodel.Volley_request_init,
      { carrier = Arg 2; callbacks = [ (on_response, Response) ] } );
    (* startService(intent) runs the service its action names (§4). *)
    ( Libmodel.Start_service,
      { carrier = Action 0; callbacks = [ (on_handle_intent, Call_args) ] } );
  ]
  @ List.map
      (fun e ->
        let m, name, _ = event_row e in
        (m, { carrier = Arg 0; callbacks = [ (name, Event e) ] }))
      events

(* Hashed: the call graph asks about every library call it resolves. *)
let listener = Hashtbl.find_opt (Hashtbl.of_seq (List.to_seq table))

let callbacks m =
  match listener m with Some l -> List.map fst l.callbacks | None -> []

let event_of m = List.find_opt (fun e -> match event_row e with r, _, _ -> r = m) events

(* Each callback's source and its predecessor in its row, hashed: the
   forward engine asks on every application call. *)
let by_name : (string, source * string option) Hashtbl.t = Hashtbl.create 16

let () =
  let add prev (name, source) = Hashtbl.replace by_name name (source, prev); Some name in
  List.iter (fun (_, l) -> ignore (List.fold_left add None l.callbacks)) table

let names = List.sort String.compare (List.of_seq (Hashtbl.to_seq_keys by_name))

let receives_call_args name =
  match Hashtbl.find_opt by_name name with
  | Some (source, _) -> source = Call_args
  | None -> true

let previous name =
  match Hashtbl.find_opt by_name name with
  | Some (Previous, prev) -> prev
  | Some _ | None -> None

let var_class (v : Ir.var) =
  match v.Ir.vty with Ir.Obj c -> Some c | Ir.Void | Ir.Int | Ir.Bool | Ir.Str | Ir.Arr _ -> None

(* The listener class a call's carrier names by its static type; an
   intent's action is a string, so [Action] names none. *)
let carrier_class (invoke : Ir.invoke) = function
  | Receiver -> Option.bind invoke.Ir.ibase var_class
  | Arg i -> (
      match List.nth_opt invoke.Ir.iargs i with
      | Some (Ir.Local v) -> var_class v
      | Some (Ir.Const _) | None -> None)
  | Action _ -> None

let trigger_names =
  Api.method_names (fun m ->
      match listener m with
      | Some { carrier = Receiver | Arg _; _ } -> true
      | Some { carrier = Action _; _ } | None -> false)

let resolve : Extr_cfg.Callgraph.callback_resolver =
 fun prog invoke ->
  match Option.bind (Api.model_of invoke) listener with
  | Some l -> (
      match carrier_class invoke l.carrier with
      | Some cls ->
          List.filter_map
            (fun (name, _) ->
              let id = { Ir.id_cls = cls; id_name = name } in
              Option.map (fun _ -> id) (Prog.find_method prog id))
            l.callbacks
      | None -> [])
  | None -> []

let listener_of_request prog (meth : Ir.meth) (req_var : Ir.var) =
  Array.fold_left
    (fun found stmt ->
      match Ir.stmt_invoke stmt with
      | Some ({ Ir.ikind = Ir.Special; ibase = Some b; _ } as i)
        when b.Ir.vname = req_var.Ir.vname
             && Api.model_of i = Some Libmodel.Volley_request_init ->
          resolve prog i @ found
      | Some _ | None -> found)
    [] meth.Ir.m_body
