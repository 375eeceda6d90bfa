"""Store the seed-0 reference of every workload under perfbench/reference/.

    python3 perfbench/make_reference.py

The reference holds the final u, v, stress and θ of one seed-0 simulation
and the sha256 of its ledger.csv.  Regenerate it only when a change is meant
to alter the program's answers, and say so where the change is described.
"""

from run import OUT, REFERENCE, import_program, simulate
from workloads import WORKLOADS, write_config


def main() -> None:
    cli = import_program()
    from checks import final_fields, save_reference

    REFERENCE.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        out = OUT / workload.name
        simdir = out / "sim"
        sim = simulate(cli, write_config(workload, 0, out / "seed_0.cfg", simdir), simdir)
        if sim.failures:
            raise SystemExit(f"{workload.name}: {sim.failures}")
        save_reference(REFERENCE / f"{workload.name}.npz", final_fields(sim.result.state),
                       sim.ledger_sha256)
        system = sim.system
        print(f"{workload.name}: ledger sha256 {sim.ledger_sha256}, dofs theta "
              f"{system.n_temp} displacement {system.n_disp} stress {system.k_stress}")


if __name__ == "__main__":
    main()
