(* The 64-bit state lives unboxed in an 8-byte buffer: reading and writing
   it through the [bytes] primitives keeps every step allocation-free, where
   a mutable [int64] field would box a fresh state on each draw. *)
type t = bytes

external get_state : bytes -> int -> int64 = "%caml_bytes_get64u"
external set_state : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] step t =
  let s = Int64.add (get_state t 0) golden in
  set_state t 0 s;
  mix s

let next_int64 t = step t

let split t = of_state (step t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (step t) 2) in
  r mod bound

(* Uniform in [0, 1): the top 53 bits over 2^53. *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (step t) 11) /. 9007199254740992.0

let float t bound = bound *. unit_float t

let fill_float t a =
  for i = 0 to Float.Array.length a - 1 do
    Float.Array.unsafe_set a i (unit_float t)
  done

let bool t = Int64.logand (step t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
