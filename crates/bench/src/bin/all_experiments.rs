//! Regenerates the paper's tables and figures (see DESIGN.md for the
//! experiment index), each model trained once per run.
//!
//! `all_experiments` runs every experiment in print order;
//! `all_experiments --only table04,figure2` runs the named ones. Scale with
//! the `TABBIN_TABLES` / `TABBIN_STEPS` / `TABBIN_SEED` environment variables.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match args.as_slice() {
        [] => None,
        [flag, names] if flag == "--only" => Some(names.as_str()),
        _ => fail("usage: all_experiments [--only NAME[,NAME...]]".into()),
    };
    let selected = tabbin_bench::experiments::select(spec).unwrap_or_else(|e| fail(e));
    let cfg = tabbin_bench::ExpConfig::from_env().unwrap_or_else(|e| fail(e));
    let t0 = std::time::Instant::now();
    for block in tabbin_bench::experiments::run(&selected, &cfg) {
        println!("{block}");
    }
    println!("total wall time: {:.1}s", t0.elapsed().as_secs_f64());
}

fn fail(msg: String) -> ! {
    eprintln!("all_experiments: {msg}");
    std::process::exit(2)
}
