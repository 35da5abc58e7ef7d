(** HTTP transactions as Extractocol reconstructs them (§2: URI, request
    data, request method, response data) and as the dynamic baselines
    capture them in traffic traces. *)

type meth = GET | POST | PUT | DELETE

val meth_to_string : meth -> string
val meth_of_string : string -> meth option

(** Message bodies.  [Query] is a form-encoded key/value body; [Binary]
    stands for opaque payloads such as media streams. *)
type body =
  | No_body
  | Query of (string * string) list
  | Json of Json.t
  | Xml of Xml.elem
  | Text of string
  | Binary of string

val body_kind : body -> string
val body_to_string : body -> string

type request = {
  req_meth : meth;
  req_uri : Uri.t;
  req_headers : (string * string) list;
  req_body : body;
}

type response = {
  resp_status : int;
  resp_headers : (string * string) list;
  resp_body : body;
}

type transaction = { tx_request : request; tx_response : response }

val request : ?headers:(string * string) list -> ?body:body -> meth -> Uri.t -> request
val response : ?status:int -> ?headers:(string * string) list -> body -> response

val header : string -> (string * string) list -> string option
(** Case-insensitive header lookup. *)

val pp_request : Format.formatter -> request -> unit

(** {1 Traffic traces}

    The mitmproxy analogue: every transaction with the UI/timer/push event
    that triggered it, used when attributing coverage differences between
    fuzzers (§5.1). *)

type trigger =
  | Ui_click of string  (** a plain clickable UI element *)
  | Ui_custom of string  (** custom UI widget (auto fuzzers fail on these) *)
  | Ui_action of string  (** action with side effects: purchase, payment... *)
  | Timer of string
  | Server_push of string
  | App_internal of string  (** follow-up request issued by app code *)

val trigger_to_string : trigger -> string

type trace_entry = { te_tx : transaction; te_trigger : trigger }
type trace = { tr_app : string; tr_entries : trace_entry list }

val trace_requests : trace -> request list
