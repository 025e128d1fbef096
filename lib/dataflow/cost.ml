(* Work-unit costs, in microseconds of notional CPU. The absolute
   values only set the scale of the CPU% proxy; relative values follow
   the cost ordering the paper observes (state lookups cost more than
   private timers, Fig. 4 vs Fig. 5). *)
let element = 2.0       (* any dataflow element invocation *)
let table_lookup = 5.0  (* join probe into a table *)
let table_insert = 4.0
let timer = 1.0
let marshal = 20.0      (* per network message: dominated by
                           serialization + syscall in real P2 *)
let tracer_tap = 1.5    (* per tap event when tracing is on *)
let eval = 0.5          (* per expression evaluation *)
