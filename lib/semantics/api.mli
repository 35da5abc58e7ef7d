(** The modelled library API surface: the class names, the library class
    pool, and the library-model table.

    The class-name constants are shared by the semantic models, the
    deobfuscation catalog, the code generator and the runtime.  Bodies of
    library classes are empty: library behaviour comes from semantic
    models, never from analyzing library code (the paper's §4 approach of
    modelling framework semantics instead of framework code).  The table
    maps each modelled (class, method) to its {!Libmodel.t} behaviour;
    every semantics resolves a call once with {!model_of} and matches on
    the result. *)

module Ir = Extr_ir.Types

(** {1 java.lang / java.util} *)

val string_builder : string
val java_string : string
val java_integer : string
val java_object : string
val array_list : string
val hash_map : string
val timer : string
val timer_task : string

(** {1 java.net / java.io} *)

val url_encoder : string
val java_url : string
val http_url_connection : string
val java_socket : string
val input_stream : string
val output_stream : string
val io_utils : string

(** {1 Apache HttpClient} *)

val http_get : string
val http_post : string
val http_put : string
val http_delete : string
val http_request_base : string
val http_client : string
val default_http_client : string
val http_response : string
val http_entity : string
val entity_utils : string
val string_entity : string
val form_entity : string
val name_value_pair : string

(** {1 JSON / XML} *)

val json_object : string
val json_array : string
val gson : string
val xml_parser : string
val xml_element : string

(** {1 Android framework} *)

val activity : string
val resources : string
val view : string
val on_click_listener : string
val async_task : string
val sqlite_database : string
val content_values : string
val cursor : string
val media_player : string
val text_view : string
val edit_text : string
val location_manager : string
val location : string
val location_listener : string
val android_log : string
val intent : string
val context : string
val intent_service : string
val firebase_messaging : string
val messaging_service : string

(** {1 Reflection} *)

val java_class : string
val reflect_method : string

(** {1 Volley} *)

val request_queue : string
val string_request : string
val volley_listener : string

(** {1 OkHttp} *)

val okhttp_client : string
val okhttp_request : string
val okhttp_builder : string
val okhttp_body : string
val okhttp_call : string
val okhttp_response : string
val okhttp_response_body : string

(** {1 The class pool} *)

val library_classes : Ir.cls list
(** All modelled library classes, with superclass links where app classes
    subclass framework classes.  Append these to a program's class list
    so CHA and type lookups resolve. *)

val library_class_names : string list

val is_library_class : string -> bool
(** Is [name] one of the modelled library classes (by exact name)? *)

val library_super : string -> string option
(** Superclass of a library class inside the static library hierarchy. *)

val library_subclass : sub:string -> super:string -> bool
(** Does library class [sub] equal or extend library class [super]? *)

(** {1 The library-model table} *)

type model = Libmodel.t

val lookup : cls:string -> name:string -> model option
(** The model of method [name] on library class [cls], inherited entries
    included ([DefaultHttpClient.execute] is [HttpClient.execute]). *)

val model_of : Ir.invoke -> model option
(** The model a call resolves to: the {!lookup} of the method reference's
    class, else of the receiver's static class.  [None] for application
    calls and unmodelled library calls. *)

val method_names : (model -> bool) -> string list
(** Distinct method names, sorted, of the table entries whose model
    satisfies the predicate: the method-index keys under which a caller
    finds every candidate call site. *)
