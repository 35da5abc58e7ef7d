(** The modelled library behaviours, one constructor per behaviour and one
    line per library family.  Calls that share a body in every semantics
    share a constructor: the four HttpGet/Post/Put/Delete constructors are
    [Request_init], the sixteen JSON getters are [Json_get].  {!Api.model_of}
    resolves a call to its behaviour; the abstract and concrete
    interpreters, the taint models, the demarcation and consumer sinks and
    the callback resolver all dispatch on the result. *)

type t =
  | Sb_init | Sb_append | Sb_to_string  (* StringBuilder *)
  | Str_value_of | Str_concat | Str_trim | Str_equals | Str_length  (* String *)
  | Int_parse | Int_to_string | Url_encode  (* Integer, URLEncoder *)
  | Get_resources | Res_string | Find_view | Edit_text_get | Set_text  (* resources, views *)
  | On_click | Timer_schedule | Push_subscribe | Location_updates  (* listener registrations *)
  | Location_lat | Location_lon  (* android.location *)
  | Intent_init | Intent_put | Intent_get | Start_service  (* intents *)
  | Class_for_name | New_instance | Get_method | Method_invoke  (* reflection *)
  | List_init | List_add | List_get | List_size | Map_init | Map_put | Map_get  (* containers *)
  | Request_init | Add_header | Set_entity | Apache_execute  (* Apache requests *)
  | String_entity_init | Form_entity_init | Pair_init  (* Apache entities *)
  | Get_entity | Get_content | Read_stream  (* Apache responses, stream readers *)
  | Url_init | Open_connection | Set_method | Conn_output | Conn_input | Conn_code  (* java.net *)
  | Stream_write  (* OutputStream *)
  | Socket_init | Socket_output | Socket_input  (* raw sockets, the §4 extension *)
  | Volley_request_init | Volley_add  (* volley *)
  | Ok_builder_init | Ok_url | Ok_header | Ok_method | Ok_build  (* okhttp requests *)
  | Ok_body_create | Ok_new_call | Ok_execute | Ok_response_body | Ok_body_string  (* okhttp *)
  | Media_source  (* android.media *)
  | Json_obj_init | Json_arr_init | Json_obj_put | Json_arr_put | Json_to_string  (* org.json *)
  | Json_get | Gson_to_json | Gson_from_json  (* JSON readers, gson *)
  | Xml_parse | Xml_child | Xml_children | Xml_attr | Xml_text  (* XML *)
  | Db_write | Db_query | Cursor_get | Cursor_next  (* SQLite *)
  | Log  (* android.util.Log: a taint sanitizer *)
  | Async_execute | Framework_init  (* modelled concretely only *)
  | Noop  (* constructors and calls with no modelled effect *)
