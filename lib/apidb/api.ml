(** Identity of a system API, in the broad sense used by the study:
    system calls, vectored system call opcodes (ioctl/fcntl/prctl),
    pseudo-files under /proc, /dev and /sys, and libc exports. *)

type vector = Ioctl | Fcntl | Prctl

type t =
  | Syscall of int  (** x86-64 system call number *)
  | Vop of vector * int  (** operation code of a vectored system call *)
  | Pseudo_file of string  (** hard-coded pseudo-file path, normalized *)
  | Libc_sym of string  (** dynamic symbol exported by the C library *)

let vector_name = function Ioctl -> "ioctl" | Fcntl -> "fcntl" | Prctl -> "prctl"

let vector_syscall_nr = function Ioctl -> 16 | Fcntl -> 72 | Prctl -> 157

let vector_of_syscall_nr = function
  | 16 -> Some Ioctl
  | 72 -> Some Fcntl
  | 157 -> Some Prctl
  | _ -> None

(* Exactly [Stdlib.compare]'s total order, without the generic C
   compare: constructors in declaration order, [Vop] by vector rank
   then code, ints by [Int.compare], strings by [String.compare]. Set
   iteration, serialization and index interning all follow this order,
   so it must never drift from the structural one (the test suite
   checks the two agree in sign on random pairs). *)
let tag = function Syscall _ -> 0 | Vop _ -> 1 | Pseudo_file _ -> 2 | Libc_sym _ -> 3

let vector_rank = function Ioctl -> 0 | Fcntl -> 1 | Prctl -> 2

let compare a b =
  match (a, b) with
  | Syscall x, Syscall y -> Int.compare x y
  | Vop (v, x), Vop (w, y) ->
    (match Int.compare (vector_rank v) (vector_rank w) with
     | 0 -> Int.compare x y
     | c -> c)
  | Pseudo_file x, Pseudo_file y | Libc_sym x, Libc_sym y -> String.compare x y
  | _ -> Int.compare (tag a) (tag b)

let equal a b = compare a b = 0

let hash = Hashtbl.hash

let pp ppf = function
  | Syscall nr -> Fmt.pf ppf "syscall:%d" nr
  | Vop (v, code) -> Fmt.pf ppf "%s:0x%x" (vector_name v) code
  | Pseudo_file path -> Fmt.pf ppf "file:%s" path
  | Libc_sym name -> Fmt.pf ppf "libc:%s" name

let to_string t = Fmt.str "%a" pp t

module Set = Set.Make (struct
  type nonrec t = t
  let compare = compare
end)

module Map = Map.Make (struct
  type nonrec t = t
  let compare = compare
end)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end)
