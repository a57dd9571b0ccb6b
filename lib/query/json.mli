(** Minimal JSON for the serve protocol and the bench reports (the
    project carries no JSON dependency). Total: malformed input yields
    [Error], never an exception. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line rendering; non-finite numbers print as [null]. *)

val to_string_indented : t -> string
(** Multi-line rendering for files people read: one member or element
    per line, indented by two spaces, ending in a newline. Non-integer
    numbers print in the shortest form that parses back to the same
    float. *)

val parse : string -> (t, string) result
(** Parse one complete JSON value (rejects trailing garbage). *)

val member : string -> t -> t option
(** Field lookup; [None] on non-objects too. *)

val to_int : t -> int option
(** The number, when it is an exact integer. *)

val to_str : t -> string option
val to_list : t -> t list option
