open Test_util

let int_pair = QCheck2.Gen.(pair (int_range (-1000000) 1000000) (int_range (-1000000) 1000000))

let big_gen =
  (* Random big integers built from digit strings, including negatives. *)
  QCheck2.Gen.(
    map2
      (fun neg digits ->
        let s = String.concat "" (List.map string_of_int digits) in
        let s = if s = "" then "0" else s in
        Bigint.of_string (if neg then "-" ^ s else s))
      bool
      (list_size (int_range 1 12) (int_range 0 999)))

(* Reference Euclid over [rem], independent of the library's gcd. *)
let rec euclid a b =
  if Bigint.is_zero b then Bigint.abs a else euclid b (Bigint.rem a b)

(* Big operands sharing a random common factor (often a power of two),
   with zero mixed in. *)
let gcd_operands =
  QCheck2.Gen.(
    let operand = oneof [ return Bigint.zero; big_gen ] in
    map3
      (fun a b (c, k) ->
        let c = Bigint.shift_left c k in
        (Bigint.mul a c, Bigint.mul b c))
      operand operand
      (pair big_gen (int_range 0 40)))

let suite =
  [
    case "of_int/to_int roundtrip" (fun () ->
        List.iter
          (fun n -> checki "roundtrip" n (Bigint.to_int_exn (Bigint.of_int n)))
          [ 0; 1; -1; 42; -12345; max_int / 2; min_int / 2; max_int; min_int + 1 ]);
    case "string roundtrip" (fun () ->
        List.iter
          (fun s -> checks "roundtrip" s Bigint.(to_string (of_string s)))
          [ "0"; "1"; "-1"; "123456789012345678901234567890"; "-9"; "10000000000000000000000" ]);
    case "leading zeros parse" (fun () ->
        check bigint "007" (Bigint.of_int 7) (Bigint.of_string "007"));
    case "pow2" (fun () ->
        checks "2^100" "1267650600228229401496703205376" (Bigint.to_string (Bigint.pow2 100)));
    case "pow" (fun () ->
        check bigint "3^7" (Bigint.of_int 2187) (Bigint.pow (Bigint.of_int 3) 7);
        check bigint "x^0" Bigint.one (Bigint.pow (Bigint.of_int 999) 0));
    case "factorial 30" (fun () ->
        let fact n =
          let rec go acc i =
            if i > n then acc else go (Bigint.mul acc (Bigint.of_int i)) (i + 1)
          in
          go Bigint.one 1
        in
        checks "30!" "265252859812191058636308480000000" (Bigint.to_string (fact 30)));
    case "division by zero" (fun () ->
        Alcotest.check_raises "raise" Division_by_zero (fun () ->
            ignore (Bigint.div Bigint.one Bigint.zero)));
    case "divexact rejects inexact" (fun () ->
        Alcotest.check_raises "raise"
          (Invalid_argument "Bigint.divexact: inexact division") (fun () ->
            ignore (Bigint.divexact (Bigint.of_int 7) (Bigint.of_int 2))));
    case "gcd" (fun () ->
        check bigint "gcd(12,18)" (Bigint.of_int 6)
          (Bigint.gcd (Bigint.of_int 12) (Bigint.of_int 18));
        check bigint "gcd(-12,18)" (Bigint.of_int 6)
          (Bigint.gcd (Bigint.of_int (-12)) (Bigint.of_int 18));
        check bigint "gcd(0,0)" Bigint.zero (Bigint.gcd Bigint.zero Bigint.zero));
    case "num_bits/testbit" (fun () ->
        checki "bits of 0" 0 (Bigint.num_bits Bigint.zero);
        checki "bits of 1" 1 (Bigint.num_bits Bigint.one);
        checki "bits of 2^100" 101 (Bigint.num_bits (Bigint.pow2 100));
        checkb "bit 100 of 2^100" true (Bigint.testbit (Bigint.pow2 100) 100);
        checkb "bit 99 of 2^100" false (Bigint.testbit (Bigint.pow2 100) 99));
    qtest "add agrees with int" int_pair (fun (a, b) ->
        Bigint.to_int_exn (Bigint.add (Bigint.of_int a) (Bigint.of_int b)) = a + b);
    qtest "sub agrees with int" int_pair (fun (a, b) ->
        Bigint.to_int_exn (Bigint.sub (Bigint.of_int a) (Bigint.of_int b)) = a - b);
    qtest "mul agrees with int" int_pair (fun (a, b) ->
        Bigint.to_int_exn (Bigint.mul (Bigint.of_int a) (Bigint.of_int b)) = a * b);
    qtest "divmod agrees with int"
      QCheck2.Gen.(pair (int_range (-100000) 100000) (int_range (-1000) 1000))
      (fun (a, b) ->
        b = 0
        ||
        let q, r = Bigint.divmod (Bigint.of_int a) (Bigint.of_int b) in
        Bigint.to_int_exn q = a / b && Bigint.to_int_exn r = a mod b);
    qtest "compare agrees with int" int_pair (fun (a, b) ->
        Bigint.compare (Bigint.of_int a) (Bigint.of_int b) = compare a b);
    qtest "add commutative (big)" QCheck2.Gen.(pair big_gen big_gen) (fun (a, b) ->
        Bigint.equal (Bigint.add a b) (Bigint.add b a));
    qtest "mul commutative (big)" QCheck2.Gen.(pair big_gen big_gen) (fun (a, b) ->
        Bigint.equal (Bigint.mul a b) (Bigint.mul b a));
    qtest "mul distributes over add (big)"
      QCheck2.Gen.(triple big_gen big_gen big_gen)
      (fun (a, b, c) ->
        Bigint.equal
          (Bigint.mul a (Bigint.add b c))
          (Bigint.add (Bigint.mul a b) (Bigint.mul a c)));
    qtest "divmod invariant (big)" QCheck2.Gen.(pair big_gen big_gen) (fun (a, b) ->
        Bigint.is_zero b
        ||
        let q, r = Bigint.divmod a b in
        Bigint.equal a (Bigint.add (Bigint.mul q b) r)
        && Bigint.compare (Bigint.abs r) (Bigint.abs b) < 0
        && (Bigint.is_zero r || Bigint.sign r = Bigint.sign a));
    qtest "string roundtrip (big)" big_gen (fun a ->
        Bigint.equal a (Bigint.of_string (Bigint.to_string a)));
    qtest "sub then add roundtrip (big)" QCheck2.Gen.(pair big_gen big_gen)
      (fun (a, b) -> Bigint.equal a (Bigint.add (Bigint.sub a b) b));
    qtest "shift_left is mul by 2^k" QCheck2.Gen.(pair big_gen (int_range 0 70))
      (fun (a, k) -> Bigint.equal (Bigint.shift_left a k) (Bigint.mul a (Bigint.pow2 k)));
    qtest "gcd divides both (big)" QCheck2.Gen.(pair big_gen big_gen) (fun (a, b) ->
        let g = Bigint.gcd a b in
        Bigint.is_zero g
        || (Bigint.is_zero (Bigint.rem a g) && Bigint.is_zero (Bigint.rem b g)));
    qtest ~count:300 "gcd agrees with Euclid (big, zero, negative)" gcd_operands
      (fun (a, b) ->
        let g = Bigint.gcd a b in
        Bigint.equal g (euclid a b)
        && Bigint.equal g (Bigint.gcd b a)
        && Bigint.sign g >= 0);
  ]

let ratio_suite =
  [
    case "normalization" (fun () ->
        check ratio "2/4 = 1/2" (Ratio.of_ints 1 2) (Ratio.of_ints 2 4);
        check ratio "-1/-2 = 1/2" (Ratio.of_ints 1 2) (Ratio.of_ints (-1) (-2));
        checks "print" "-1/2" (Ratio.to_string (Ratio.of_ints 1 (-2))));
    case "arithmetic" (fun () ->
        check ratio "1/2+1/3" (Ratio.of_ints 5 6)
          (Ratio.add (Ratio.of_ints 1 2) (Ratio.of_ints 1 3));
        check ratio "1/2*2/3" (Ratio.of_ints 1 3)
          (Ratio.mul (Ratio.of_ints 1 2) (Ratio.of_ints 2 3));
        check ratio "(1/2)/(3/4)" (Ratio.of_ints 2 3)
          (Ratio.div (Ratio.of_ints 1 2) (Ratio.of_ints 3 4)));
    case "division by zero" (fun () ->
        Alcotest.check_raises "raise" Division_by_zero (fun () ->
            ignore (Ratio.div Ratio.one Ratio.zero)));
    qtest "field laws on small rationals"
      QCheck2.Gen.(
        quad (int_range (-50) 50) (int_range 1 50) (int_range (-50) 50) (int_range 1 50))
      (fun (a, b, c, d) ->
        let x = Ratio.of_ints a b and y = Ratio.of_ints c d in
        Ratio.equal (Ratio.add x y) (Ratio.add y x)
        && Ratio.equal (Ratio.sub (Ratio.add x y) y) x
        && Ratio.equal (Ratio.mul x y) (Ratio.mul y x));
    qtest "to_float consistent"
      QCheck2.Gen.(pair (int_range (-1000) 1000) (int_range 1 1000))
      (fun (a, b) ->
        abs_float (Ratio.to_float (Ratio.of_ints a b) -. (float_of_int a /. float_of_int b))
        < 1e-9);
  ]

let suites = [ ("bigint", suite); ("ratio", ratio_suite) ]
