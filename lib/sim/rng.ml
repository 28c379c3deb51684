(* The 64-bit state lives in an 8-byte [Bytes.t] rather than a mutable
   [int64] field, which would box the state on every store:
   [Bytes.get_int64_le]/[set_int64_le] are unboxed primitives.  Without
   flambda only functions the closure-mode inliner sees as [@inline] keep
   their [int64]s unboxed across calls, hence the attributes below. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let split t = of_state (next64 t)

let int t bound =
  assert (bound > 0);
  let r = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  r mod bound

let[@inline] int64 t bound =
  assert (Int64.compare bound 0L > 0);
  let r = Int64.shift_right_logical (next64 t) 1 in
  Int64.rem r bound

let[@inline] float t =
  let r = Int64.shift_right_logical (next64 t) 11 in
  Int64.to_float r *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (next64 t) 1L = 1L
