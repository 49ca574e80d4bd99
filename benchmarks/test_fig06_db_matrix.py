"""Figure 6 — classification of database techniques (Gray et al.'s axes).

Eager vs. lazy propagation and primary-copy vs. update-everywhere,
derived from metadata and verified against live behaviour: laziness is
measured as "responded before the secondaries had the data", update
location as "which sites accept update transactions".
"""

from conftest import format_rows, report
from repro import Operation, ReplicatedSystem
from repro.core.classification import db_matrix, render_matrix
from repro.core.protocols import REGISTRY

DB = ["eager_primary", "eager_ue_locking", "eager_ue_abcast", "lazy_primary", "lazy_ue"]


def behavioural_probe():
    probes = {}
    for name in DB:
        # Laziness: immediately after the response, do all replicas
        # already hold the write?
        system = ReplicatedSystem(name, replicas=3, seed=3,
                                  propagation_delay=50.0)
        result = system.execute([Operation.write("probe", "v")])
        assert result.committed
        fresh_everywhere = all(
            system.store_of(n).read("probe") == "v" for n in system.replica_names
        )
        measured_eager = fresh_everywhere

        # Update location: does a non-primary site accept an update?
        system2 = ReplicatedSystem(name, replicas=3, clients=2, seed=3,
                                   client_timeout=60.0, max_client_retries=0)
        result2 = system2.execute([Operation.write("w", 1)], client=1)  # home r1
        accepts_anywhere = result2.committed and result2.server == "r1"
        probes[name] = (measured_eager, accepts_anywhere)
    return probes


def test_fig06_db_classification(once):
    probes = once(behavioural_probe)
    matrix = db_matrix()

    assert matrix[("eager", "primary")] == ["eager_primary"]
    assert sorted(matrix[("eager", "everywhere")]) == [
        "certification", "eager_ue_abcast", "eager_ue_locking",
    ]
    assert matrix[("lazy", "primary")] == ["lazy_primary"]
    assert matrix[("lazy", "everywhere")] == ["lazy_ue"]

    for name, (measured_eager, accepts_anywhere) in probes.items():
        info = REGISTRY[name].info
        assert measured_eager == (info.propagation == "eager"), name
        assert accepts_anywhere == (info.update_location == "everywhere"), name

    rendered = render_matrix(
        matrix,
        row_labels={"eager": "eager", "lazy": "lazy"},
        column_labels={"primary": "primary copy", "everywhere": "update everywhere"},
    )
    rows = [
        [name, "eager" if e else "lazy", "everywhere" if a else "primary"]
        for name, (e, a) in sorted(probes.items())
    ]
    report(
        "fig06_db_matrix",
        "Figure 6: Replication in database systems\n\n"
        + rendered
        + "\n\nbehavioural verification (measured, not declared):\n"
        + format_rows(["technique", "propagation", "update location"], rows),
    )
