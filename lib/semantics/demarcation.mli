(** Demarcation points (§3.1): the HTTP access functions from which
    Extractocol performs bi-directional taint propagation.  A demarcation
    point separates the backward (request) slice from the forward
    (response) slice. *)

module Ir = Extr_ir.Types

(** How the response flows out of a demarcation point. *)
type response_binding =
  | Ret  (** the call's return value is the response object *)
  | Base  (** the receiver itself yields the response *)
  | Listener_callback of { arg_idx : int }
      (** the response arrives as the first parameter of the {!Callbacks}
          callback of the listener the request in argument [arg_idx] carries *)
  | Opaque_sink  (** the response is consumed internally (MediaPlayer) *)

(** What part of the invoke carries the request. *)
type request_binding =
  | Arg of int  (** argument [i] is the request object *)
  | Recv  (** the receiver is the request (okhttp Call, URLConnection, Socket) *)

type t = {
  dp_cls : string;
  dp_meth : string;
  dp_request : request_binding;
  dp_response : response_binding;
  dp_desc : string;
}

val registry : t list
(** The modelled demarcation points across org.apache.http, java.net
    (HttpURLConnection and the §4 raw-socket extension), volley, okhttp
    and android.media. *)

val method_names : string list
(** Distinct method names, sorted, of the library-model table entries that
    are demarcation points — the index keys demand-driven demarcation
    discovery scans. *)

val find : Ir.invoke -> t option
(** The registry entry of the call's library model, if it is one. *)

val is_demarcation : Ir.invoke -> bool

val stats : unit -> int * int
(** (demarcation points, classes) in the registry — the synthetic-API
    counterpart of the paper's 39 DPs from 16 classes. *)
