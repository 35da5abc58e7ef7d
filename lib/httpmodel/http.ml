(* HTTP transactions as Extractocol reconstructs them (paper §2: an HTTP
   transaction consists of URI, request data, request method, and response
   data) and as the dynamic baselines capture them in traffic traces. *)

type meth = GET | POST | PUT | DELETE

let meth_to_string = function
  | GET -> "GET"
  | POST -> "POST"
  | PUT -> "PUT"
  | DELETE -> "DELETE"

let meth_of_string = function
  | "GET" -> Some GET
  | "POST" -> Some POST
  | "PUT" -> Some PUT
  | "DELETE" -> Some DELETE
  | _ -> None

(** Message bodies.  [Query] is a form-encoded key/value body (the paper's
    "query string" request bodies); [Binary] stands for opaque payloads such
    as media streams. *)
type body =
  | No_body
  | Query of (string * string) list
  | Json of Json.t
  | Xml of Xml.elem
  | Text of string
  | Binary of string

let body_kind = function
  | No_body -> "none"
  | Query _ -> "query"
  | Json _ -> "json"
  | Xml _ -> "xml"
  | Text _ -> "text"
  | Binary _ -> "binary"

let body_to_string = function
  | No_body -> ""
  | Query kvs -> Uri.query_to_string kvs
  | Json j -> Json.to_string j
  | Xml x -> Xml.to_string x
  | Text s -> s
  | Binary s -> s

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

let request ?(headers = []) ?(body = No_body) meth uri =
  { req_meth = meth; req_uri = uri; req_headers = headers; req_body = body }

let response ?(status = 200) ?(headers = []) body =
  { resp_status = status; resp_headers = headers; resp_body = body }

let header name msg_headers =
  List.assoc_opt (String.lowercase_ascii name)
    (List.map (fun (k, v) -> (String.lowercase_ascii k, v)) msg_headers)

let pp_request fmt r =
  Fmt.pf fmt "%s %a" (meth_to_string r.req_meth) Uri.pp r.req_uri;
  match r.req_body with
  | No_body -> ()
  | b -> Fmt.pf fmt " [%s body %d bytes]" (body_kind b) (String.length (body_to_string b))

(* ------------------------------------------------------------------ *)
(* Traffic traces                                                     *)
(* ------------------------------------------------------------------ *)

(** How a captured transaction was triggered during dynamic execution —
    used when attributing coverage differences between fuzzers (§5.1). *)
type trigger =
  | Ui_click of string  (** a plain clickable UI element *)
  | Ui_custom of string  (** custom UI widget (auto fuzzers fail on these) *)
  | Ui_action of string  (** action with side effects: purchase, payment ... *)
  | Timer of string
  | Server_push of string
  | App_internal of string  (** follow-up request issued by app code *)

let trigger_to_string = function
  | Ui_click s -> "click:" ^ s
  | Ui_custom s -> "custom-ui:" ^ s
  | Ui_action s -> "action:" ^ s
  | Timer s -> "timer:" ^ s
  | Server_push s -> "push:" ^ s
  | App_internal s -> "internal:" ^ s

type trace_entry = { te_tx : transaction; te_trigger : trigger }

(** A captured traffic trace for one app run, the mitmproxy analogue. *)
type trace = { tr_app : string; tr_entries : trace_entry list }

let trace_requests tr = List.map (fun e -> e.te_tx.tx_request) tr.tr_entries
