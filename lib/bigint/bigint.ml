(* Sign-magnitude arbitrary-precision integers.

   Magnitudes are little-endian arrays of base-2^15 digits with no leading
   zero digit; the zero value has sign 0 and an empty magnitude.  Base 2^15
   keeps every product of two digits plus carries well inside the 63-bit
   native [int] range used by the schoolbook algorithms below. *)

let base_bits = 15
let base = 1 lsl base_bits
let base_mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* ------------------------------------------------------------------ *)
(* Magnitude helpers (arrays of digits, little-endian, no leading 0s) *)
(* ------------------------------------------------------------------ *)

let mag_normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i = if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let l = Stdlib.max la lb in
  let r = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  r.(l) <- !carry;
  mag_normalize r

(* Requires a >= b. *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin r.(i) <- d + base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  assert (!borrow = 0);
  mag_normalize r

let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      if ai <> 0 then begin
        for j = 0 to lb - 1 do
          let s = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- s land base_mask;
          carry := s lsr base_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let s = r.(!k) + !carry in
          r.(!k) <- s land base_mask;
          carry := s lsr base_bits;
          incr k
        done
      end
    done;
    mag_normalize r
  end

let mag_of_int n =
  (* n >= 0 *)
  if n = 0 then [||]
  else begin
    let rec count n acc = if n = 0 then acc else count (n lsr base_bits) (acc + 1) in
    let l = count n 0 in
    let r = Array.make l 0 in
    let rec fill i n = if n <> 0 then begin r.(i) <- n land base_mask; fill (i + 1) (n lsr base_bits) end in
    fill 0 n;
    r
  end

(* Multiply magnitude by a small non-negative int and add a small int. *)
let mag_mul_small_add a m addend =
  let la = Array.length a in
  let r = Array.make (la + 5) 0 in
  let carry = ref addend in
  for i = 0 to la - 1 do
    let s = (a.(i) * m) + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  let k = ref la in
  while !carry <> 0 do
    r.(!k) <- !carry land base_mask;
    carry := !carry lsr base_bits;
    incr k
  done;
  mag_normalize r

(* Divide magnitude by a small positive int; returns (quotient, remainder). *)
let mag_divmod_small a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (mag_normalize q, !r)

let mag_shift_left a k =
  if Array.length a = 0 then [||]
  else begin
    let dw = k / base_bits and db = k mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + dw + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let s = (a.(i) lsl db) lor !carry in
      r.(i + dw) <- s land base_mask;
      carry := s lsr base_bits
    done;
    r.(la + dw) <- !carry;
    mag_normalize r
  end

let mag_shift_right a k =
  let dw = k / base_bits and db = k mod base_bits in
  let la = Array.length a in
  if dw >= la then [||]
  else begin
    let r = Array.make (la - dw) 0 in
    for i = 0 to la - dw - 1 do
      let hi = if i + dw + 1 < la then a.(i + dw + 1) lsl (base_bits - db) else 0 in
      r.(i) <- ((a.(i + dw) lsr db) lor hi) land base_mask
    done;
    mag_normalize r
  end

(* Requires a non-zero magnitude. *)
let mag_trailing_zeros a =
  let i = ref 0 in
  while a.(!i) = 0 do incr i done;
  let b = ref 0 in
  while (a.(!i) lsr !b) land 1 = 0 do incr b done;
  (!i * base_bits) + !b

(* Binary (Stein) gcd: strip the common power of two, then subtract the
   smaller odd value from the larger and strip the difference's factors
   of two until the two meet.  Shifts and subtractions only, no division;
   at most one step per bit of the operands. *)
let mag_gcd a b =
  if Array.length a = 0 then b
  else if Array.length b = 0 then a
  else begin
    let odd x = mag_shift_right x (mag_trailing_zeros x) in
    let rec go a b =
      let c = mag_compare a b in
      if c = 0 then a
      else if c > 0 then go (odd (mag_sub a b)) b
      else go a (odd (mag_sub b a))
    in
    mag_shift_left (go (odd a) (odd b))
      (Stdlib.min (mag_trailing_zeros a) (mag_trailing_zeros b))
  end

let mag_num_bits a =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    ((la - 1) * base_bits) + bits top 0
  end

let mag_testbit a i =
  let w = i / base_bits and b = i mod base_bits in
  w < Array.length a && (a.(w) lsr b) land 1 = 1

(* Long division of magnitudes: returns (quotient, remainder).
   Knuth-style per-digit estimation using the top two remainder digits;
   estimates are corrected by at most a few steps, which is fine at our
   digit width. *)
let mag_divmod a b =
  let lb = Array.length b in
  if lb = 0 then raise Division_by_zero;
  if mag_compare a b < 0 then ([||], a)
  else if lb = 1 then begin
    let q, r = mag_divmod_small a b.(0) in
    (q, mag_of_int r)
  end else begin
    (* Binary long division on bits: simple, clearly correct, and fast
       enough for the matrix sizes used in the experiments. *)
    let n = mag_num_bits a in
    let q = Array.make (Array.length a) 0 in
    let r = ref [||] in
    for i = n - 1 downto 0 do
      r := mag_shift_left !r 1;
      if mag_testbit a i then
        r := mag_add !r [| 1 |];
      if mag_compare !r b >= 0 then begin
        r := mag_sub !r b;
        q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
      end
    done;
    (mag_normalize q, !r)
  end

(* ------------------------------------------------------------------ *)
(* Signed interface                                                    *)
(* ------------------------------------------------------------------ *)

let make sign mag =
  let mag = mag_normalize mag in
  if Array.length mag = 0 then zero else { sign; mag }

let of_int n =
  if n = 0 then zero
  else if n > 0 then { sign = 1; mag = mag_of_int n }
  else if n = min_int then
    (* -min_int overflows; build from two halves. *)
    let half = { sign = 1; mag = mag_of_int (-(n / 2)) } in
    let dbl = { sign = -1; mag = mag_mul half.mag (mag_of_int 2) } in
    dbl
  else { sign = -1; mag = mag_of_int (-n) }

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)

let sign x = x.sign
let is_zero x = x.sign = 0

let neg x = if x.sign = 0 then zero else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

let compare x y =
  if x.sign <> y.sign then compare x.sign y.sign
  else if x.sign >= 0 then mag_compare x.mag y.mag
  else mag_compare y.mag x.mag

let equal x y = compare x y = 0

let hash x =
  Array.fold_left (fun acc d -> (acc * 1000003) lxor d) (x.sign + 2) x.mag

let add x y =
  if x.sign = 0 then y
  else if y.sign = 0 then x
  else if x.sign = y.sign then { sign = x.sign; mag = mag_add x.mag y.mag }
  else begin
    let c = mag_compare x.mag y.mag in
    if c = 0 then zero
    else if c > 0 then { sign = x.sign; mag = mag_sub x.mag y.mag }
    else { sign = y.sign; mag = mag_sub y.mag x.mag }
  end

let sub x y = add x (neg y)

let mul x y =
  if x.sign = 0 || y.sign = 0 then zero
  else { sign = x.sign * y.sign; mag = mag_mul x.mag y.mag }

let succ x = add x one
let pred x = sub x one

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else begin
    let qm, rm = mag_divmod a.mag b.mag in
    let q = make (a.sign * b.sign) qm in
    let r = make a.sign rm in
    (q, r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let divexact a b =
  let q, r = divmod a b in
  if not (is_zero r) then invalid_arg "Bigint.divexact: inexact division";
  q

let gcd a b = make 1 (mag_gcd a.mag b.mag)

let pow x k =
  if k < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc base k =
    if k = 0 then acc
    else if k land 1 = 1 then go (mul acc base) (mul base base) (k lsr 1)
    else go acc (mul base base) (k lsr 1)
  in
  go one x k

let shift_left x k =
  if k < 0 then invalid_arg "Bigint.shift_left: negative shift";
  if x.sign = 0 then zero else { x with mag = mag_shift_left x.mag k }

let pow2 k = shift_left one k

let min x y = if compare x y <= 0 then x else y
let max x y = if compare x y >= 0 then x else y

let sum l = List.fold_left add zero l
let product l = List.fold_left mul one l

let num_bits x = mag_num_bits x.mag
let testbit x i = mag_testbit x.mag i

let to_int_opt x =
  (* Magnitudes of up to 4 digits (60 bits) always fit; 5 digits may not. *)
  let l = Array.length x.mag in
  if l = 0 then Some 0
  else if mag_num_bits x.mag > 62 then None
  else begin
    let v = ref 0 in
    for i = l - 1 downto 0 do
      v := (!v lsl base_bits) lor x.mag.(i)
    done;
    Some (if x.sign < 0 then - !v else !v)
  end

let to_int_exn x =
  match to_int_opt x with
  | Some n -> n
  | None -> failwith "Bigint.to_int_exn: out of native int range"

let to_float x =
  let l = Array.length x.mag in
  let v = ref 0.0 in
  for i = l - 1 downto 0 do
    v := (!v *. float_of_int base) +. float_of_int x.mag.(i)
  done;
  if x.sign < 0 then -. !v else !v

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec chunks m acc =
      if Array.length m = 0 then acc
      else begin
        let q, r = mag_divmod_small m 10000 in
        chunks q (r :: acc)
      end
    in
    (match chunks x.mag [] with
     | [] -> assert false
     | first :: rest ->
       if x.sign < 0 then Buffer.add_char buf '-';
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%04d" c)) rest);
    Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let neg_sign, start =
    match s.[0] with
    | '-' -> (true, 1)
    | '+' -> (false, 1)
    | _ -> (false, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let m = ref [||] in
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string: invalid digit";
    m := mag_mul_small_add !m 10 (Char.code c - Char.code '0')
  done;
  make (if neg_sign then -1 else 1) !m

let pp ppf x = Format.pp_print_string ppf (to_string x)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( = ) = equal
  let ( < ) x y = compare x y < 0
  let ( <= ) x y = compare x y <= 0
  let ( > ) x y = compare x y > 0
  let ( >= ) x y = compare x y >= 0
  let ( ~- ) = neg
end
