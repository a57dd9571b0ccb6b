(* The request streams, drawn from the workload seed and the world's
   own syscall ranking. The programs under test only ever see the
   generated requests. *)

module P = Core.Query.Protocol
module Query = Core.Query.Engine
module Api = Core.Apidb.Api

let rng seed salt = Random.State.make [| seed; salt |]

(* [k] distinct elements of [a], in draw order. *)
let sample st a k =
  let a = Array.copy a in
  let n = Array.length a in
  let k = min k n in
  for i = 0 to k - 1 do
    let j = i + Random.State.int st (n - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list (Array.sub a 0 k)

(* [count] distinct syscall subsets with sizes uniform in [1, max_size]. *)
let distinct_subsets st ranking ~count ~max_size =
  let seen = Hashtbl.create (2 * count) in
  let out = ref [] and n = ref 0 in
  while !n < count do
    let size = 1 + Random.State.int st max_size in
    let s = List.sort compare (sample st ranking size) in
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      out := s :: !out;
      incr n
    end
  done;
  Array.of_list (List.rev !out)

(* Inverse-CDF Zipf(s) sampler over ranks [0, n). *)
let zipf st ~n ~s =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (k + 1)) s);
    cdf.(k) <- !acc
  done;
  fun () ->
    let u = Random.State.float st !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

let phases = [| Query.All; Query.Init; Query.Serving |]
let syscall_api nr = Query.api_to_string (Api.Syscall nr)

(* --- serve-mix ------------------------------------------------------ *)

(* The distinct requests of the serve-mix stream and the order they are
   sent in: 60% completeness over 1-20 syscalls, Zipf(1.1) over 2,000
   distinct subsets; 20% importance over every ranked syscall in all
   three phases; 10% top-N; 10% dependents. About 2,900 distinct
   requests against the server's 1,024-entry response cache, so the
   cache both hits and evicts. *)
type mix = { reqs : P.req array; stream : int array }

let stream_length = 1 lsl 16

let serve_mix ~seed idx =
  let st = rng seed 0x5e7e in
  let ranking = Array.of_list (Query.ranking idx) in
  let subsets = distinct_subsets st ranking ~count:2000 ~max_size:20 in
  let completeness =
    Array.map (fun s -> P.Completeness { syscalls = s; phase = Query.All }) subsets
  in
  let importance =
    Array.concat
      (List.map
         (fun phase ->
           Array.map (fun nr -> P.Importance { api = syscall_api nr; phase }) ranking)
         (Array.to_list phases))
  in
  let top = Array.init 50 (fun i -> P.Top (i + 1)) in
  let dependents =
    Array.map (fun nr -> P.Dependents { api = syscall_api nr; limit = Some 10 }) ranking
  in
  let reqs = Array.concat [ completeness; importance; top; dependents ] in
  let n_c = Array.length completeness and n_i = Array.length importance in
  let n_t = Array.length top and n_d = Array.length dependents in
  let zipf = zipf st ~n:n_c ~s:1.1 in
  let stream =
    Array.init stream_length (fun _ ->
        let u = Random.State.float st 1.0 in
        if u < 0.6 then zipf ()
        else if u < 0.8 then n_c + Random.State.int st n_i
        else if u < 0.9 then n_c + n_i + Random.State.int st n_t
        else n_c + n_i + n_t + Random.State.int st n_d)
  in
  { reqs; stream }

let mix_req m id = m.reqs.(m.stream.(id mod stream_length))

let is_completeness = function P.Completeness _ -> true | _ -> false

(* --- fleet-scatter -------------------------------------------------- *)

(* [count] distinct completeness requests over 1-200 syscalls, phases
   mixed. No shard's 1,024-entry response cache can hold a window of
   them, so every scatter is evaluated. *)
type scatter = { subsets : int list array; phase_of : Query.phase array }

let scatter_count = 16384

let scatter ~seed idx =
  let st = rng seed 0xf1ee in
  let ranking = Array.of_list (Query.ranking idx) in
  let subsets = distinct_subsets st ranking ~count:scatter_count ~max_size:200 in
  let phase_of = Array.map (fun _ -> phases.(Random.State.int st 3)) subsets in
  { subsets; phase_of }

let scatter_slot id = id mod scatter_count
