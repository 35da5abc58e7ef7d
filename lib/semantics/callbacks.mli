(** Implicit call flows (§3.4): the one table of the callback protocol,
    read by the call graph, both taint engines, both interpreters, the
    fuzzers, the corpus generator and the obfuscator.  A row is a library
    model that carries a listener: the value naming the listener's class
    (the receiver, an argument, or an intent's action string) and the
    callbacks in call order, each fed by the call's own arguments
    (doInBackground, onHandleIntent), the previous callback's result
    (onPostExecute), the HTTP response (onResponse) or a framework event.
    An event names its registering model, its callback and the value the
    framework passes. *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog

type event = Click | Timer | Push | Location

val callbacks : Api.model -> string list
(** A row's callback names in call order ([[]] for a model without one). *)

val do_in_background : string
val on_post_execute : string
val on_response : string
val on_handle_intent : string

val names : string list
(** Every callback name in the table, sorted. *)

val receives_call_args : string -> bool
(** [false] for a callback the table feeds from its predecessor, the
    response or an event; [true] for any other method name. *)

val previous : string -> string option
(** The callback whose result feeds this one (onPostExecute's
    doInBackground). *)

val event_of : Api.model -> event option
(** The event whose listener a model registers. *)

val callback : event -> string
(** The callback the framework invokes when the event fires. *)

val event_args : event -> fresh:(string -> 'a) -> payload:'a -> 'a list
(** What the framework passes that callback: nothing (run), a new
    instance of a library class, built by [fresh] (the View of onClick,
    the Location of onLocationChanged), or a push message, [payload]. *)

val resolve : Extr_cfg.Callgraph.callback_resolver
(** The callbacks a call hands control to, on the class its carrier's
    static type names (an intent's action names none): the implicit
    edges of call-graph construction. *)

val trigger_names : string list
(** Method names, from the library-model table, of every call [resolve]
    can return callbacks for — the [callback_triggers] the call graph
    needs to find candidate implicit-edge sites through the method
    index. *)

val listener_of_request :
  Prog.t -> Ir.meth -> Ir.var -> Ir.method_id list
(** The [onResponse] method(s) of the listener a Volley-style request
    carries: scans the allocating method for the request's constructor
    call and resolves its listener argument's class. *)
