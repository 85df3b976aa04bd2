//! Recorded results per workload and seed at the default length, so a
//! run on a seed that was not used while tuning can be checked.
//!
//! Guest instructions and simulated cycles are results of the modelled
//! design: a change that only speeds the simulator up must leave them
//! identical, so a mismatch fails the run. `host.events` counts the
//! events delivered to the sinks and may move with a change to how the
//! engine batches its stream; it is recorded, and reported beside the
//! measured count, but not enforced.

/// `(workload, seed, guest_insts, timing.sim_cycles, host.events)` for
/// seeds 1 to 20 at each workload's default length.
const PINNED: &[(&str, u64, u64, u64, u64)] = &[
    ("gcc-startup", 1, 2300779, 11199971, 8943840),
    ("gcc-startup", 2, 2241267, 12460472, 9034356),
    ("gcc-startup", 3, 2252235, 14258023, 9897231),
    ("gcc-startup", 4, 2346037, 13291221, 9639863),
    ("gcc-startup", 5, 2215744, 13762825, 9537902),
    ("gcc-startup", 6, 2269685, 13455095, 9551194),
    ("gcc-startup", 7, 2243271, 14188191, 9779380),
    ("gcc-startup", 8, 2342843, 14966804, 10010267),
    ("gcc-startup", 9, 2232290, 13737237, 9531911),
    ("gcc-startup", 10, 2332225, 12520309, 9113551),
    ("gcc-startup", 11, 2251809, 12203799, 9222804),
    ("gcc-startup", 12, 2312675, 11544345, 9046495),
    ("gcc-startup", 13, 2208205, 13809183, 9481142),
    ("gcc-startup", 14, 2188190, 13838568, 9511625),
    ("gcc-startup", 15, 2293968, 10959803, 8791547),
    ("gcc-startup", 16, 2284962, 11442866, 8802997),
    ("gcc-startup", 17, 2260377, 12191196, 9055684),
    ("gcc-startup", 18, 2277210, 11401350, 8684211),
    ("gcc-startup", 19, 2263727, 11241959, 8716205),
    ("gcc-startup", 20, 2255563, 13199881, 9506204),
    ("perlbench-cosim", 1, 2781650, 10212953, 7922201),
    ("perlbench-cosim", 2, 2804398, 10888013, 8032195),
    ("perlbench-cosim", 3, 2735157, 11407411, 8221122),
    ("perlbench-cosim", 4, 2757079, 10394421, 7842496),
    ("perlbench-cosim", 5, 2661161, 9994690, 7521675),
    ("perlbench-cosim", 6, 2787264, 11163090, 8281680),
    ("perlbench-cosim", 7, 2645070, 10967217, 8084569),
    ("perlbench-cosim", 8, 2916933, 12109626, 8413395),
    ("perlbench-cosim", 9, 2751747, 10379342, 7700711),
    ("perlbench-cosim", 10, 2721151, 10902545, 7836775),
    ("perlbench-cosim", 11, 2804101, 9681457, 7621767),
    ("perlbench-cosim", 12, 2714952, 10866969, 8110278),
    ("perlbench-cosim", 13, 2822227, 10727674, 8291157),
    ("perlbench-cosim", 14, 2761699, 10914759, 8091694),
    ("perlbench-cosim", 15, 2940392, 10811733, 8438024),
    ("perlbench-cosim", 16, 2760443, 10448789, 7692217),
    ("perlbench-cosim", 17, 2733748, 10159040, 7690417),
    ("perlbench-cosim", 18, 2763469, 9566008, 7463652),
    ("perlbench-cosim", 19, 2793267, 10425783, 7941169),
    ("perlbench-cosim", 20, 2780244, 10450752, 7889940),
    ("lbm-figures", 1, 11081256, 13549007, 12366859),
    ("lbm-figures", 2, 11017376, 17282204, 12953421),
    ("lbm-figures", 3, 9736718, 12663054, 11729108),
    ("lbm-figures", 4, 11258938, 17276074, 13412939),
    ("lbm-figures", 5, 10379007, 12812280, 11557224),
    ("lbm-figures", 6, 10505718, 12762013, 12659750),
    ("lbm-figures", 7, 10555614, 12824253, 12627156),
    ("lbm-figures", 8, 10159494, 15079690, 12076169),
    ("lbm-figures", 9, 10886010, 13854962, 12882785),
    ("lbm-figures", 10, 11920607, 16000909, 14312901),
    ("lbm-figures", 11, 10421749, 12775140, 12454878),
    ("lbm-figures", 12, 11544764, 19563850, 13502139),
    ("lbm-figures", 13, 11172373, 15598141, 13602128),
    ("lbm-figures", 14, 11743454, 17493638, 13983637),
    ("lbm-figures", 15, 10554989, 14061089, 11374009),
    ("lbm-figures", 16, 11346254, 16072023, 13424471),
    ("lbm-figures", 17, 10415511, 13282382, 11927398),
    ("lbm-figures", 18, 11885010, 17628379, 14246779),
    ("lbm-figures", 19, 10704034, 15557658, 12778907),
    ("lbm-figures", 20, 10729262, 17309259, 11481475),
];

/// Outcome of comparing a run with the recorded table.
pub enum Verdict {
    /// The simulated results match the record.
    Match(String),
    /// They differ: the program's output changed.
    Mismatch(String),
}

impl Verdict {
    /// One-line description for the log.
    pub fn describe(&self) -> String {
        match self {
            Verdict::Match(s) => format!("match ({s})"),
            Verdict::Mismatch(s) => format!("MISMATCH ({s})"),
        }
    }
}

/// Compares a run's results with the record for `(workload, seed)`;
/// `None` when that pair is not recorded or the run used another length.
pub fn check(
    workload: &str,
    seed: u64,
    default_scale: bool,
    guest_insts: u64,
    sim_cycles: u64,
    host_events: Option<u64>,
) -> Option<Verdict> {
    if !default_scale {
        return None;
    }
    let &(_, _, want_insts, want_cycles, want_events) =
        PINNED.iter().find(|p| p.0 == workload && p.1 == seed)?;
    let text = format!(
        "guest_insts {guest_insts}/{want_insts} timing.sim_cycles {sim_cycles}/{want_cycles} \
         host.events {}/{want_events}",
        host_events.map_or("-".into(), |e| e.to_string())
    );
    Some(if guest_insts == want_insts && sim_cycles == want_cycles {
        Verdict::Match(text)
    } else {
        Verdict::Mismatch(text)
    })
}
