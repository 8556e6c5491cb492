//! `spcg-rankd` — one rank of a [`Backend::Proc`](spcg::dist::Backend)
//! world.
//!
//! Spawned by the parent's first proc solve at a rank count
//! (`spcg_solvers::procexec::run_proc`), never by hand:
//! `spcg-rankd <socket> <rank>` connects to the parent's hub socket, then
//! keeps the matrix of each `LOAD` frame and runs its rank of each `SOLVE`
//! frame, shipping the result back, until the parent hangs up. Killing
//! this process mid-solve is the supported way to exercise real
//! rank-failure recovery.

#[cfg(unix)]
fn main() -> ! {
    spcg::solvers::procexec::worker_main()
}

#[cfg(not(unix))]
fn main() {
    eprintln!("spcg-rankd: the proc backend requires a Unix platform");
    std::process::exit(2);
}
