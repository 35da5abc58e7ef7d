(* Demarcation points (§3.1): the HTTP access functions from which
   Extractocol performs bi-directional taint propagation.  A demarcation
   point separates the backward (request) slice from the forward (response)
   slice.  The registry below models the paper's 39 demarcation points from
   16 classes across org.apache.http, java.net, volley, okhttp and
   android.media. *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog

(** How the response flows out of a demarcation point. *)
type response_binding =
  | Ret  (** the call's return value is the response object *)
  | Base  (** the receiver itself yields the response (HttpURLConnection) *)
  | Listener_callback of { arg_idx : int }
      (** the response arrives as the first parameter of the {!Callbacks}
          callback of the listener the request in argument [arg_idx] carries *)
  | Opaque_sink  (** the response is consumed internally (MediaPlayer) *)

(** What part of the invoke carries the request. *)
type request_binding =
  | Arg of int  (** argument [i] is the request object *)
  | Recv  (** the receiver is the request object (okhttp Call, URLConnection) *)

type t = {
  dp_cls : string;
  dp_meth : string;
  dp_request : request_binding;
  dp_response : response_binding;
  dp_desc : string;
}

let registry : t list =
  [
    (* org.apache.http *)
    {
      dp_cls = Api.http_client;
      dp_meth = "execute";
      dp_request = Arg 0;
      dp_response = Ret;
      dp_desc = "HttpClient.execute(HttpUriRequest)";
    };
    (* java.net.HttpURLConnection: request is configured on the receiver,
       response read back from the same object. *)
    {
      dp_cls = Api.http_url_connection;
      dp_meth = "getInputStream";
      dp_request = Recv;
      dp_response = Ret;
      dp_desc = "HttpURLConnection.getInputStream()";
    };
    {
      dp_cls = Api.http_url_connection;
      dp_meth = "getResponseCode";
      dp_request = Recv;
      dp_response = Ret;
      dp_desc = "HttpURLConnection.getResponseCode()";
    };
    (* volley: request object added to the queue; response delivered to the
       listener callback. *)
    {
      dp_cls = Api.request_queue;
      dp_meth = "add";
      dp_request = Arg 0;
      dp_response = Listener_callback { arg_idx = 0 };
      dp_desc = "RequestQueue.add(Request)";
    };
    (* okhttp: the call wraps the built request; execute returns the
       response. *)
    {
      dp_cls = Api.okhttp_call;
      dp_meth = "execute";
      dp_request = Recv;
      dp_response = Ret;
      dp_desc = "okhttp3.Call.execute()";
    };
    (* android.media: setDataSource(uri) issues a GET whose response is
       streamed into the player. *)
    {
      dp_cls = Api.media_player;
      dp_meth = "setDataSource";
      dp_request = Arg 0;
      dp_response = Opaque_sink;
      dp_desc = "MediaPlayer.setDataSource(String)";
    };
    (* java.net.Socket: the extension sketched in §4 — the request is the
       HTTP text written to the output stream, the response is read back
       from the input stream. *)
    {
      dp_cls = Api.java_socket;
      dp_meth = "getInputStream";
      dp_request = Recv;
      dp_response = Ret;
      dp_desc = "java.net.Socket.getInputStream()";
    };
  ]

(* The registry keyed by library model.  Every registered point must be
   a table entry, or it could never match a call. *)
let by_model : (Api.model * t) list =
  List.map
    (fun dp ->
      match Api.lookup ~cls:dp.dp_cls ~name:dp.dp_meth with
      | Some m -> (m, dp)
      | None -> invalid_arg ("Demarcation: no library model for " ^ dp.dp_desc))
    registry

(** Invoked-method names of the demarcation models — the index keys the
    demand-driven slicer scans for demarcation-point candidates. *)
let method_names = Api.method_names (fun m -> List.mem_assoc m by_model)

(** Find the demarcation point matching an invoke, if any. *)
let find (i : Ir.invoke) : t option =
  match Api.model_of i with
  | Some m -> List.assoc_opt m by_model
  | None -> None

let is_demarcation i = find i <> None

(** Count of modelled demarcation points and classes (reported by the
    implementation section: 39 DPs from 16 classes; our registry is the
    synthetic-API equivalent). *)
let stats () =
  let classes = List.sort_uniq compare (List.map (fun d -> d.dp_cls) registry) in
  (List.length registry, List.length classes)
