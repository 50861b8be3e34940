(* Monotonic clock reading taken while the program's libraries are
   initialised; bench.exe times its set-up from here. *)

let ns = Monotonic_clock.now ()
