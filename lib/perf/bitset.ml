(** Flat fixed-universe bitsets over [int array] words. See the
    interface for the design notes; the representation invariant
    maintained by every operation is that bits at positions
    [>= universe] are zero, which is what lets [equal]/[subset]/
    [cardinal] run word-wise without masking the tail word. *)

(* Bits per word: the native int's usable width (63 on 64-bit). *)
let bpw = Sys.int_size

type t = {
  u : int;  (* universe size *)
  w : int array;  (* ceil (u / bpw) words, tail bits always clear *)
}

let words_for u = (u + bpw - 1) / bpw

let create u =
  if u < 0 then invalid_arg "Bitset.create: negative universe";
  { u; w = Array.make (words_for u) 0 }

let universe t = t.u

let add t i =
  if i < 0 || i >= t.u then invalid_arg "Bitset.add: out of universe";
  t.w.(i / bpw) <- t.w.(i / bpw) lor (1 lsl (i mod bpw))

let remove t i =
  if i < 0 || i >= t.u then invalid_arg "Bitset.remove: out of universe";
  t.w.(i / bpw) <- t.w.(i / bpw) land lnot (1 lsl (i mod bpw))

let mem t i =
  i >= 0 && i < t.u && t.w.(i / bpw) land (1 lsl (i mod bpw)) <> 0

(* Byte-table population count: one lookup per occupied byte of the
   word. Builds once at module load; 256 bytes. *)
let byte_pop =
  let tbl = Bytes.create 256 in
  for b = 0 to 255 do
    let rec pop n = if n = 0 then 0 else (n land 1) + pop (n lsr 1) in
    Bytes.set tbl b (Char.chr (pop b))
  done;
  tbl

let pop_word w =
  let rec go w acc =
    if w = 0 then acc
    else go (w lsr 8) (acc + Char.code (Bytes.get byte_pop (w land 0xff)))
  in
  go w 0

let cardinal t = Array.fold_left (fun acc w -> acc + pop_word w) 0 t.w

let is_empty t = Array.for_all (fun w -> w = 0) t.w

let check_universe op a b =
  if a.u <> b.u then
    invalid_arg (Printf.sprintf "Bitset.%s: universes differ (%d vs %d)" op a.u b.u)

let subset a b =
  check_universe "subset" a b;
  let n = Array.length a.w in
  let i = ref 0 in
  while !i < n && a.w.(!i) land lnot b.w.(!i) = 0 do
    incr i
  done;
  !i = n

let inter a b =
  check_universe "inter" a b;
  { u = a.u; w = Array.init (Array.length a.w) (fun i -> a.w.(i) land b.w.(i)) }

let union a b =
  check_universe "union" a b;
  { u = a.u; w = Array.init (Array.length a.w) (fun i -> a.w.(i) lor b.w.(i)) }

let union_into ~into src =
  check_universe "union_into" into src;
  for i = 0 to Array.length into.w - 1 do
    into.w.(i) <- into.w.(i) lor src.w.(i)
  done

let equal a b = a.u = b.u && a.w = b.w

let copy t = { u = t.u; w = Array.copy t.w }

let words t = t.w

let key t =
  let b = Bytes.create (8 * Array.length t.w) in
  Array.iteri (fun i w -> Bytes.set_int64_le b (8 * i) (Int64.of_int w)) t.w;
  Bytes.unsafe_to_string b

let iter f t =
  for k = 0 to Array.length t.w - 1 do
    let w = ref t.w.(k) in
    let base = k * bpw in
    while !w <> 0 do
      (* lowest set bit: isolate, count shift by halving ranges *)
      let b = !w land - !w in
      let rec bit_index b acc = if b = 1 then acc else bit_index (b lsr 1) (acc + 1) in
      f (base + bit_index b 0);
      w := !w land (!w - 1)
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_sorted_array t =
  let out = Array.make (cardinal t) 0 in
  let k = ref 0 in
  iter
    (fun i ->
      out.(!k) <- i;
      incr k)
    t;
  out

let of_list u ids =
  let t = create u in
  List.iter (fun i -> if i >= 0 && i < u then add t i) ids;
  t

let to_bytes t =
  let len = (t.u + 7) / 8 in
  let b = Bytes.make len '\000' in
  iter
    (fun i ->
      let j = i / 8 in
      Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lor (1 lsl (i mod 8)))))
    t;
  Bytes.unsafe_to_string b

(* --- word stores ----------------------------------------------------

   The query index's numeric planes (class rows, package weights,
   survival products) live behind these two sums so the same hot loops
   can run over freshly built heap arrays or over a format-4 snapshot
   image mapped read-only with [Unix.map_file]. A [Bigarray] of kind
   [int] reads the low 63 bits of each little-endian word on disk —
   exactly the truncation [Int64.to_int] applies on the copying decode
   path, so both backends observe identical values bit for bit. *)

type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type float_ba =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type words =
  | Words_heap of int array
  | Words_map of { wba : int_ba; woff : int; wlen : int }

type floats =
  | Floats_heap of float array
  | Floats_map of { fba : float_ba; foff : int; flen : int }

let words_len = function
  | Words_heap a -> Array.length a
  | Words_map { wlen; _ } -> wlen

let words_get s i =
  match s with
  | Words_heap a -> a.(i)
  | Words_map { wba; woff; wlen } ->
    if i < 0 || i >= wlen then invalid_arg "Bitset.words_get: out of range";
    Bigarray.Array1.get wba (woff + i)

let words_to_array = function
  | Words_heap a -> Array.copy a
  | Words_map { wba; woff; wlen } ->
    Array.init wlen (fun i -> Bigarray.Array1.get wba (woff + i))

let floats_len = function
  | Floats_heap a -> Array.length a
  | Floats_map { flen; _ } -> flen

let floats_get s i =
  match s with
  | Floats_heap a -> a.(i)
  | Floats_map { fba; foff; flen } ->
    if i < 0 || i >= flen then invalid_arg "Bitset.floats_get: out of range";
    Bigarray.Array1.get fba (foff + i)

let floats_to_array = function
  | Floats_heap a -> Array.copy a
  | Floats_map { fba; foff; flen } ->
    Array.init flen (fun i -> Bigarray.Array1.get fba (foff + i))

(* Contiguous sub-range extraction, for the range-sliced image writer:
   a slice of a plane materializes only the [len] elements starting at
   [pos], never the whole plane. *)

let words_sub s pos len =
  if pos < 0 || len < 0 || pos > words_len s - len then
    invalid_arg "Bitset.words_sub: out of range";
  match s with
  | Words_heap a -> Array.sub a pos len
  | Words_map { wba; woff; _ } ->
    Array.init len (fun i -> Bigarray.Array1.get wba (woff + pos + i))

let floats_sub s pos len =
  if pos < 0 || len < 0 || pos > floats_len s - len then
    invalid_arg "Bitset.floats_sub: out of range";
  match s with
  | Floats_heap a -> Array.sub a pos len
  | Floats_map { fba; foff; _ } ->
    Array.init len (fun i -> Bigarray.Array1.get fba (foff + pos + i))

(* Wire layout for the numeric planes: one 8-byte little-endian word
   per element. Ints are sign-extended from their 63-bit pattern
   (matching what a mapped int-kind read truncates back to); floats
   are IEEE-754 bit patterns. *)

let words_to_le (a : int array) : string =
  let b = Bytes.create (8 * Array.length a) in
  Array.iteri (fun i w -> Bytes.set_int64_le b (8 * i) (Int64.of_int w)) a;
  Bytes.unsafe_to_string b

let floats_to_le (a : float array) : string =
  let b = Bytes.create (8 * Array.length a) in
  Array.iteri
    (fun i f -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float f))
    a;
  Bytes.unsafe_to_string b

let of_bytes u s =
  if u < 0 then Error "negative universe"
  else if String.length s <> (u + 7) / 8 then
    Error
      (Printf.sprintf "bitset payload is %d bytes, universe %d needs %d"
         (String.length s) u ((u + 7) / 8))
  else begin
    let t = create u in
    let bad = ref false in
    String.iteri
      (fun j c ->
        let c = Char.code c in
        for bit = 0 to 7 do
          if c land (1 lsl bit) <> 0 then begin
            let i = (j * 8) + bit in
            if i < u then add t i else bad := true
          end
        done)
      s;
    if !bad then Error "set bits beyond the universe" else Ok t
  end
