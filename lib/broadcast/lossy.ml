let run_traced ?arena g ~rng ~loss ~source ~initial ~decide =
  if loss < 0. || loss > 1. then invalid_arg "Lossy.run: loss must be within [0, 1]";
  Engine.run_core ~drop:(Engine.loss_drop rng ~loss) ?arena g ~source ~initial ~decide

let run ?arena g ~rng ~loss ~source ~initial ~decide =
  fst (run_traced ?arena g ~rng ~loss ~source ~initial ~decide)

let delivery_ratio p g ~rng ~loss ~source =
  Protocol.delivery_ratio p (Protocol.make_env ~rng g) ~loss ~source

let flooding_delivery g ~rng ~loss ~source = delivery_ratio Protocol.flooding g ~rng ~loss ~source
