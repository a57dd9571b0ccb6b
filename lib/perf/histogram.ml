(** HDR-style bucketing: values 0..15 get exact buckets; above that,
    each power-of-two range [2^b, 2^(b+1)) splits into 16 linear
    sub-buckets of width 2^(b-4), so the representative value of any
    bucket is within 1/16 of every observation it holds. The bucket
    count is fixed (960 covers the whole 63-bit int range), which
    keeps [merge_into] a flat array walk and the footprint constant. *)

let n_buckets = 960

type t = {
  counts : int array;
  mutable n : int;
  mutable vmin : int;
  mutable vmax : int;
  mutex : Mutex.t;
}

let create () =
  {
    counts = Array.make n_buckets 0;
    n = 0;
    vmin = max_int;
    vmax = 0;
    mutex = Mutex.create ();
  }

let msb v =
  let b = ref 0 and v = ref v in
  while !v > 1 do
    incr b;
    v := !v lsr 1
  done;
  !b

let bucket_of v =
  if v < 16 then v
  else
    let b = msb v in
    ((b - 3) lsl 4) lor ((v lsr (b - 4)) land 15)

(* Midpoint of the bucket's range — exact for the unit buckets. *)
let representative idx =
  if idx < 16 then idx
  else
    let b = (idx lsr 4) + 3 in
    let width = 1 lsl (b - 4) in
    (1 lsl b) + ((idx land 15) * width) + (width / 2)

let observe t v =
  let v = max 0 v in
  Mutex.protect t.mutex (fun () ->
      t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
      t.n <- t.n + 1;
      if v < t.vmin then t.vmin <- v;
      if v > t.vmax then t.vmax <- v)

let count t = Mutex.protect t.mutex (fun () -> t.n)

let quantile_locked t q =
  if t.n = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int t.n))) in
    let rank = min rank t.n in
    let seen = ref 0 and idx = ref 0 in
    (try
       for i = 0 to n_buckets - 1 do
         seen := !seen + t.counts.(i);
         if !seen >= rank then begin
           idx := i;
           raise Exit
         end
       done
     with Exit -> ());
    let v = representative !idx in
    float_of_int (min (max v t.vmin) t.vmax)
  end

let quantile t q = Mutex.protect t.mutex (fun () -> quantile_locked t q)

let merge_into ~into src =
  (* Lock ordering: the source is read under its own lock into a
     scratch copy, then the destination updates under its lock — no
     nested locking, so merging in any direction cannot deadlock. *)
  let counts, n, vmin, vmax =
    Mutex.protect src.mutex (fun () ->
        (Array.copy src.counts, src.n, src.vmin, src.vmax))
  in
  if n > 0 then
    Mutex.protect into.mutex (fun () ->
        Array.iteri
          (fun i c -> if c > 0 then into.counts.(i) <- into.counts.(i) + c)
          counts;
        into.n <- into.n + n;
        if vmin < into.vmin then into.vmin <- vmin;
        if vmax > into.vmax then into.vmax <- vmax)

type summary = {
  h_count : int;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
  h_max : float;
}

let summary t =
  Mutex.protect t.mutex (fun () ->
      {
        h_count = t.n;
        h_p50 = quantile_locked t 0.50;
        h_p95 = quantile_locked t 0.95;
        h_p99 = quantile_locked t 0.99;
        h_max = (if t.n = 0 then 0.0 else float_of_int t.vmax);
      })

(* --- registry ------------------------------------------------------- *)

let reg_lock = Mutex.create ()
let registry : (string, t) Hashtbl.t = Hashtbl.create 16
let reg_order : string list ref = ref []  (* first-seen, reversed *)

let registered name =
  Mutex.protect reg_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some h -> h
      | None ->
        let h = create () in
        Hashtbl.replace registry name h;
        reg_order := name :: !reg_order;
        h)

let observe_ns name v = observe (registered name) v

let find name =
  Mutex.protect reg_lock (fun () -> Hashtbl.find_opt registry name)

let all () =
  let names = Mutex.protect reg_lock (fun () -> List.rev !reg_order) in
  List.map (fun name -> (name, summary (registered name))) names

let reset () =
  Mutex.protect reg_lock (fun () ->
      Hashtbl.reset registry;
      reg_order := [])
