(* The modelled Android/Java API surface (§3.2 "Semantic model"): one
   vocabulary shared by the semantic models, the corpus code generator and
   the runtime interpreter.  The paper models org.apache.http,
   android.net.http, com.android.volley, java.net, okhttp and friends, JSON
   and XML libraries, containers, and string manipulation APIs; this module
   declares the same families. *)

module Ir = Extr_ir.Types

(* ---------------- java.lang ---------------- *)
let string_builder = "java.lang.StringBuilder"
let java_string = "java.lang.String"
let java_integer = "java.lang.Integer"
let java_object = "java.lang.Object"

(* ---------------- java.net ---------------- *)
let url_encoder = "java.net.URLEncoder"
let java_url = "java.net.URL"
let http_url_connection = "java.net.HttpURLConnection"
let java_socket = "java.net.Socket"

(* ---------------- java.io ---------------- *)
let input_stream = "java.io.InputStream"
let output_stream = "java.io.OutputStream"
let io_utils = "org.apache.commons.io.IOUtils"

(* ---------------- org.apache.http ---------------- *)
let http_get = "org.apache.http.client.methods.HttpGet"
let http_post = "org.apache.http.client.methods.HttpPost"
let http_put = "org.apache.http.client.methods.HttpPut"
let http_delete = "org.apache.http.client.methods.HttpDelete"
let http_request_base = "org.apache.http.client.methods.HttpRequestBase"
let http_client = "org.apache.http.client.HttpClient"
let default_http_client = "org.apache.http.impl.client.DefaultHttpClient"
let http_response = "org.apache.http.HttpResponse"
let http_entity = "org.apache.http.HttpEntity"
let entity_utils = "org.apache.http.util.EntityUtils"
let string_entity = "org.apache.http.entity.StringEntity"
let form_entity = "org.apache.http.client.entity.UrlEncodedFormEntity"
let name_value_pair = "org.apache.http.message.BasicNameValuePair"

(* ---------------- containers ---------------- *)
let array_list = "java.util.ArrayList"
let hash_map = "java.util.HashMap"

(* ---------------- JSON ---------------- *)
let json_object = "org.json.JSONObject"
let json_array = "org.json.JSONArray"
let gson = "com.google.gson.Gson"

(* ---------------- XML ---------------- *)
let xml_parser = "org.xml.sax.XmlParser"
let xml_element = "org.w3c.dom.Element"

(* ---------------- android ---------------- *)
let activity = "android.app.Activity"
let resources = "android.content.res.Resources"
let view = "android.view.View"
let on_click_listener = "android.view.View$OnClickListener"
let async_task = "android.os.AsyncTask"
let sqlite_database = "android.database.sqlite.SQLiteDatabase"
let content_values = "android.content.ContentValues"
let cursor = "android.database.Cursor"
let media_player = "android.media.MediaPlayer"
let text_view = "android.widget.TextView"
let edit_text = "android.widget.EditText"
let location_manager = "android.location.LocationManager"
let location = "android.location.Location"
let location_listener = "android.location.LocationListener"
let android_log = "android.util.Log"
let intent = "android.content.Intent"
let context = "android.content.Context"
let intent_service = "android.app.IntentService"

(* ---------------- reflection ---------------- *)
let java_class = "java.lang.Class"
let reflect_method = "java.lang.reflect.Method"

(* ---------------- timers / push ---------------- *)
let timer = "java.util.Timer"
let timer_task = "java.util.TimerTask"
let firebase_messaging = "com.google.firebase.messaging.FirebaseMessaging"
let messaging_service = "com.google.firebase.messaging.MessagingService"

(* ---------------- volley ---------------- *)
let request_queue = "com.android.volley.RequestQueue"
let string_request = "com.android.volley.StringRequest"
let volley_listener = "com.android.volley.Response$Listener"

(* ---------------- okhttp ---------------- *)
let okhttp_client = "okhttp3.OkHttpClient"
let okhttp_request = "okhttp3.Request"
let okhttp_builder = "okhttp3.Request$Builder"
let okhttp_body = "okhttp3.RequestBody"
let okhttp_call = "okhttp3.Call"
let okhttp_response = "okhttp3.Response"
let okhttp_response_body = "okhttp3.ResponseBody"

type model = Libmodel.t

(* The class pool and the library-model table in one list: every modelled
   library class, its superclass link where app classes subclass framework
   classes, and each modelled method with its behaviour.  A class inherits
   the entries of its library superclasses.  Bodies are empty: library
   behaviour comes from semantic models, never from analyzing library
   code. *)
let pool : (Ir.cls * (string * model) list) list =
  let open Libmodel in
  let c ?super name methods =
    ( { Ir.c_name = name; c_super = super; c_fields = []; c_methods = []; c_library = true },
      methods )
  in
  let json =
    List.map
      (fun n -> (n, Json_get))
      [ "getString"; "optString"; "getInt"; "getBoolean"; "getJSONObject";
        "getJSONArray"; "has"; "length" ]
  in
  [
    c java_object [];
    c string_builder [ ("<init>", Sb_init); ("append", Sb_append); ("toString", Sb_to_string) ];
    c java_string
      [ ("valueOf", Str_value_of); ("concat", Str_concat); ("trim", Str_trim);
        ("equals", Str_equals); ("length", Str_length) ];
    c java_integer [ ("parseInt", Int_parse); ("toString", Int_to_string) ];
    c url_encoder [ ("encode", Url_encode) ];
    c java_url [ ("<init>", Url_init); ("openConnection", Open_connection) ];
    c http_url_connection
      [ ("setRequestMethod", Set_method); ("setRequestProperty", Add_header);
        ("getOutputStream", Conn_output); ("getInputStream", Conn_input);
        ("getResponseCode", Conn_code) ];
    c java_socket
      [ ("<init>", Socket_init); ("getOutputStream", Socket_output);
        ("getInputStream", Socket_input) ];
    c input_stream [];
    c output_stream [ ("write", Stream_write); ("close", Noop) ];
    c io_utils [ ("toString", Read_stream) ];
    c http_request_base
      [ ("setHeader", Add_header); ("addHeader", Add_header); ("setEntity", Set_entity) ];
    c ~super:http_request_base http_get [ ("<init>", Request_init) ];
    c ~super:http_request_base http_post [ ("<init>", Request_init) ];
    c ~super:http_request_base http_put [ ("<init>", Request_init) ];
    c ~super:http_request_base http_delete [ ("<init>", Request_init) ];
    c http_client [ ("execute", Apache_execute) ];
    c ~super:http_client default_http_client [ ("<init>", Noop) ];
    c http_response [ ("getEntity", Get_entity) ];
    c http_entity [ ("getContent", Get_content) ];
    c entity_utils [ ("toString", Read_stream) ];
    c ~super:http_entity string_entity [ ("<init>", String_entity_init) ];
    c ~super:http_entity form_entity [ ("<init>", Form_entity_init) ];
    c name_value_pair [ ("<init>", Pair_init) ];
    c array_list
      [ ("<init>", List_init); ("add", List_add); ("get", List_get); ("size", List_size) ];
    c hash_map [ ("<init>", Map_init); ("put", Map_put); ("get", Map_get) ];
    c json_object
      ([ ("<init>", Json_obj_init); ("put", Json_obj_put); ("toString", Json_to_string) ] @ json);
    c json_array
      ([ ("<init>", Json_arr_init); ("put", Json_arr_put); ("toString", Json_to_string) ] @ json);
    c gson [ ("<init>", Noop); ("toJson", Gson_to_json); ("fromJson", Gson_from_json) ];
    c xml_parser [ ("parse", Xml_parse) ];
    c xml_element
      [ ("getChild", Xml_child); ("getChildren", Xml_children);
        ("getAttribute", Xml_attr); ("getText", Xml_text) ];
    c activity [ ("getResources", Get_resources); ("findViewById", Find_view) ];
    c resources [ ("getString", Res_string) ];
    c view [ ("setOnClickListener", On_click) ];
    c on_click_listener [];
    c async_task [ ("execute", Async_execute) ];
    c sqlite_database
      [ ("<init>", Noop); ("insert", Db_write); ("update", Db_write); ("query", Db_query) ];
    c content_values [ ("<init>", Map_init); ("put", Map_put) ];
    c cursor [ ("getString", Cursor_get); ("moveToNext", Cursor_next) ];
    c media_player
      [ ("<init>", Noop); ("setDataSource", Media_source); ("prepare", Noop); ("start", Noop) ];
    c text_view [ ("<init>", Framework_init); ("setText", Set_text) ];
    c edit_text [ ("<init>", Noop); ("getText", Edit_text_get) ];
    c location_manager
      [ ("<init>", Framework_init); ("requestLocationUpdates", Location_updates) ];
    c location [ ("getLat", Location_lat); ("getLon", Location_lon) ];
    c location_listener [];
    c android_log [ ("d", Log); ("e", Log) ];
    c intent [ ("<init>", Intent_init); ("putExtra", Intent_put); ("getExtra", Intent_get) ];
    c context [ ("startService", Start_service) ];
    c intent_service [];
    c java_class
      [ ("forName", Class_for_name); ("newInstance", New_instance); ("getMethod", Get_method) ];
    c reflect_method [ ("invoke", Method_invoke) ];
    c timer [ ("<init>", Noop); ("schedule", Timer_schedule) ];
    c timer_task [];
    c firebase_messaging [ ("subscribe", Push_subscribe) ];
    c messaging_service [];
    c request_queue [ ("<init>", Noop); ("add", Volley_add) ];
    c string_request [ ("<init>", Volley_request_init) ];
    c volley_listener [];
    c okhttp_client [ ("<init>", Noop); ("newCall", Ok_new_call) ];
    c okhttp_request [];
    c okhttp_builder
      [ ("<init>", Ok_builder_init); ("url", Ok_url); ("header", Ok_header);
        ("post", Ok_method); ("put", Ok_method); ("delete", Ok_method); ("build", Ok_build) ];
    c okhttp_body [ ("create", Ok_body_create) ];
    c okhttp_call [ ("execute", Ok_execute) ];
    c okhttp_response [ ("body", Ok_response_body) ];
    c okhttp_response_body [ ("string", Ok_body_string) ];
  ]

(** All modelled library classes, with superclass links where app classes
    subclass framework classes. *)
let library_classes : Ir.cls list = List.map fst pool

let library_class_names =
  List.map (fun c -> c.Ir.c_name) library_classes

(* Hash set over the names: [is_library_class] runs on hot interpreter and
   taint paths, where a linear scan of the registry adds up. *)
let library_class_set =
  lazy
    (let h = Hashtbl.create 64 in
     List.iter (fun n -> Hashtbl.replace h n ()) library_class_names;
     h)

(** Is [name] one of the modelled library classes (by exact name)? *)
let is_library_class name = Hashtbl.mem (Lazy.force library_class_set) name

(** Superclass of a library class inside the static library hierarchy. *)
let library_super name =
  List.find_map
    (fun c -> if c.Ir.c_name = name then c.Ir.c_super else None)
    library_classes

(** Does library class [sub] equal or extend library class [super]? *)
let rec library_subclass ~sub ~super =
  sub = super
  ||
  match library_super sub with
  | Some s -> library_subclass ~sub:s ~super
  | None -> false

(* The table flattened over the library super links: (class, method) to
   model, a class's own entry shadowing an inherited one. *)
let table : (string * string, model) Hashtbl.t =
  let h = Hashtbl.create 256 in
  let methods name =
    List.find_map (fun (c, ms) -> if c.Ir.c_name = name then Some ms else None) pool
  in
  let rec add cls from =
    List.iter
      (fun (name, m) -> if not (Hashtbl.mem h (cls, name)) then Hashtbl.add h (cls, name) m)
      (Option.value (methods from) ~default:[]);
    Option.iter (add cls) (library_super from)
  in
  List.iter (fun cls -> add cls cls) library_class_names;
  h

let lookup ~cls ~name = Hashtbl.find_opt table (cls, name)

let model_of (i : Ir.invoke) =
  let name = i.Ir.iref.Ir.mname in
  match lookup ~cls:i.Ir.iref.Ir.mcls ~name with
  | Some _ as m -> m
  | None -> (
      match i.Ir.ibase with
      | Some { Ir.vty = Ir.Obj cls; _ } -> lookup ~cls ~name
      | Some _ | None -> None)

let method_names p =
  Hashtbl.fold (fun (_, name) m acc -> if p m then name :: acc else acc) table []
  |> List.sort_uniq String.compare
