(** VM engine selection: the classic interpreter or the closure-compiled
    engine ({!Compile}). Both execute KIR over the same simulated kernel
    with bit-identical cycle accounting — the compiled engine only
    removes *host* wall-clock overhead (dispatch, hashing, tracer
    checks), never simulated work.

    Observability inherits the same contract: guard/lifecycle events are
    emitted by the policy engine underneath both runners, so a traced
    run produces the identical [carat_trace] event stream — kinds,
    sites, addresses, and cycle stamps — whichever engine executes the
    module (asserted by test_engine's traced-stream parity test). *)

type kind = Interp | Compiled

let kind_to_string = function Interp -> "interp" | Compiled -> "compiled"

let kind_of_string = function
  | "interp" | "interpreter" -> Some Interp
  | "compiled" | "compile" -> Some Compiled
  | _ -> None

(** Install the chosen engine as [kernel]'s KIR runner. Both variants
    allocate the VM stack identically, so simulated memory layout does
    not depend on the engine. Returns the shared interpreter state (used
    for stack region, step counts, and tracing; installing a tracer makes
    the compiled engine fall back to interpretation, with no effect on
    simulated cost). *)
let install ?stack_size ?max_steps ~kind kernel : Interp.state =
  match kind with
  | Interp -> Interp.install ?stack_size ?max_steps kernel
  | Compiled -> Compile.state (Compile.install ?stack_size ?max_steps kernel)
