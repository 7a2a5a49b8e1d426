//! µDEB capacity planning (paper §VI.D, Figure 17).
//!
//! How much super-capacitor should a rack carry? Sweeps the installed
//! µDEB capacity, reporting purchase cost (supercaps are 10–30 $/Wh vs
//! ~0.3 $/Wh for lead-acid) against survival time under the reference
//! attack — the trade-off "companies will adopt different capacity
//! planning strategies" over.
//!
//! Run with: `cargo run --release --example capacity_planning`

use battery::model::EnergyStorage;
use pad::experiments::{fig17, Fidelity};
use pad::udeb::MicroDeb;
use pad::units::{Joules, Watts};
use simkit::time::SimDuration;

fn main() {
    println!("== Sizing a single µDEB unit ==\n");
    let cabinet = Joules(405_000.0); // a paper-scale rack cabinet
    for fraction in [0.01, 0.05, 0.15] {
        let udeb = MicroDeb::sized_fraction(cabinet, fraction, Watts(1563.0));
        println!(
            "{:>4.0}% of cabinet -> {:>6.1} F bank, {:>6.2} Wh usable, ${:>6.0} (cost ratio {:.2} vs cabinet)",
            fraction * 100.0,
            udeb.bank().capacitance().0,
            battery::units::WattHours::from(udeb.bank().capacity()).0,
            udeb.cost_usd(),
            udeb.cost_ratio_vs_cabinet(cabinet)
        );
    }

    println!("\n== What one bank absorbs ==\n");
    let mut udeb = MicroDeb::sized_fraction(cabinet, 0.05, Watts(1563.0));
    let mut spikes = 0;
    while udeb.available() {
        let shaved = udeb.shave(Watts(600.0), SimDuration::from_secs(2));
        if shaved.0 < 599.0 {
            break;
        }
        spikes += 1;
        udeb.recharge(Watts(50.0), SimDuration::from_secs(8));
    }
    println!(
        "a 5% bank absorbs ~{spikes} consecutive 600 W x 2 s spikes with thin recharge headroom"
    );

    println!("\n== Survival vs capacity (reduced Figure 17) ==\n");
    let fig = fig17::run(Fidelity::Smoke, 1);
    print!("{}", fig.render());
}
