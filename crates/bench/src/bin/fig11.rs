//! Figure 11 — energy-efficiency comparison via the standard COP metric.
//!
//! Reruns the afternoon trial, meters the steady-state window with the
//! paper's water-side accounting, and computes the conventional AirCon
//! comparator by *simulating* an all-air system against the same
//! laboratory physics (the paper takes its 2.8 from the literature).

use std::fs::File;
use std::io::{BufWriter, Write as _};

use bz_bench::{compare, header, output_dir, row};
use bz_core::baseline::AirConSystem;
use bz_core::metrics::ExergySummary;
use bz_core::scenario::AfternoonTrial;
use bz_psychro::Celsius;

fn main() {
    bz_bench::harness(|| {
        header("Fig. 11 — COP comparison");

        // BubbleZERO: steady-state window of the afternoon trial.
        let outcome = AfternoonTrial::paper_setup().run();
        let cop = outcome.cop;

        // AirCon baseline: settle, then meter 20 minutes.
        let mut aircon = AirConSystem::for_bubble_zero_lab();
        aircon.run_seconds(40 * 60);
        aircon.reset_meters();
        aircon.run_seconds(20 * 60);
        let aircon_cop = aircon.measured_cop().expect("metered window");

        header("Module powers (steady-state window)");
        compare(
            "radiant heat removed (W)",
            "964.8",
            format!("{:.1}", cop.radiant_removed_w),
        );
        compare(
            "radiant chiller power (W)",
            "213.4",
            format!("{:.1}", cop.radiant_electrical_w),
        );
        compare(
            "ventilation heat removed (W)",
            "213.2",
            format!("{:.1}", cop.vent_removed_w),
        );
        compare(
            "ventilation chiller power (W)",
            "75.6",
            format!("{:.1}", cop.vent_electrical_w),
        );

        header("COP bars");
        compare("AirCon", "2.8", format!("{:.2}", aircon_cop));
        compare(
            "Bubble-C (radiant)",
            "4.52",
            format!("{:.2}", cop.cop_radiant()),
        );
        compare(
            "Bubble-V (ventilation)",
            "2.82",
            format!("{:.2}", cop.cop_ventilation()),
        );
        compare(
            "BubbleZERO (overall)",
            "4.07",
            format!("{:.2}", cop.cop_overall()),
        );
        compare(
            "improvement over AirCon",
            "45.5%",
            format!("{:.1}%", 100.0 * cop.improvement_over(aircon_cop)),
        );

        header("Exergy accounting (§II: why decomposition wins)");
        let exergy = ExergySummary::from_cop(&cop, Celsius::new(25.0));
        row(
            "radiant duty exergy at 18 °C water (W)",
            format!("{:.1}", exergy.radiant_w),
        );
        row(
            "ventilation duty exergy at 8 °C water (W)",
            format!("{:.1}", exergy.ventilation_w),
        );
        row(
            "same total duty at a 7 °C all-air coil (W)",
            format!("{:.1}", exergy.aircon_equivalent_w),
        );
        row(
            "exergy saved by decomposition",
            format!("{:.0}%", 100.0 * exergy.savings_fraction()),
        );

        header("Ablation — COP vs chilled-water temperature (the low-exergy lever)");
        println!("  {:<18} {:>12}", "water temp (°C)", "machine COP");
        for water_c in [6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0] {
            use bz_psychro::{CarnotChiller, Celsius};
            let chiller = CarnotChiller::new(0.30, Celsius::new(35.0).to_kelvin());
            let machine_cop = chiller.cop(Celsius::new(water_c - 2.0).to_kelvin());
            println!("  {water_c:<18} {machine_cop:>12.2}");
        }

        let path = output_dir().join("fig11.csv");
        let mut file = BufWriter::new(File::create(&path).expect("create csv"));
        writeln!(file, "system,cop").expect("write");
        writeln!(file, "AirCon,{aircon_cop:.4}").expect("write");
        writeln!(file, "Bubble-C,{:.4}", cop.cop_radiant()).expect("write");
        writeln!(file, "Bubble-V,{:.4}", cop.cop_ventilation()).expect("write");
        writeln!(file, "BubbleZERO,{:.4}", cop.cop_overall()).expect("write");
        file.flush().expect("write");
        println!("\nbars written to {}", path.display());

        row(
            "panel condensate (kg, must be 0)",
            format!("{:.6}", outcome.panel_condensate_kg),
        );
    });
}
