(** A concrete Limple interpreter: executes corpus apps against a
    simulated origin server and captures every HTTP transaction in a
    traffic trace — the substrate under the UI-fuzzing baselines of §5.1.
    Library classes are modelled concretely (the runtime counterpart of the
    semantic models the static analysis uses). *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog
module Apk = Extr_apk.Apk
module Callbacks = Extr_semantics.Callbacks
module Http = Extr_httpmodel.Http

exception Runtime_error of string

(** A registered framework callback: the event whose {!Callbacks.callback}
    on the listener receives what the framework passes. *)
type registration = { rg_event : Callbacks.event; rg_listener : Rvalue.robj }

type t = {
  prog : Prog.t;
  apk : Apk.t;
  net : Http.request -> Http.response;  (** the origin server *)
  input : unit -> string;  (** fuzz input provider (EditText contents) *)
  mutable trace : Http.trace_entry list;  (** captured transactions, reversed *)
  mutable trigger : Http.trigger;  (** label for the current event *)
  mutable registrations : registration list;
  statics : (string * string, Rvalue.t) Hashtbl.t;
  db : (string, (string, string) Hashtbl.t) Hashtbl.t;  (** table → column → value *)
  mutable fuel : int;
}

val create :
  ?fuel:int -> net:(Http.request -> Http.response) -> input:(unit -> string) ->
  Apk.t -> t

val captured_trace : t -> Http.trace

val exec_method :
  t -> Ir.meth -> this:Rvalue.t option -> args:Rvalue.t list -> Rvalue.t
(** Execute one method.
    @raise Runtime_error on stuck states or fuel exhaustion. *)

val fire : t -> registration -> unit
(** Fire a registered callback with framework-provided arguments. *)

val launch : t -> Rvalue.t list
(** Run the activity lifecycle entry points; returns the activity
    instances. *)
