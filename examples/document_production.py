#!/usr/bin/env python3
"""The paper's §2 scenario: diskless workstations doing document production.

A workstation runs ``latex`` repeatedly: the binary and the style files are
*installed files* (widely shared, read-mostly), the ``.tex`` source is a
normal user file, and the intermediate ``.aux``/``.log`` files are
temporaries that never leave the workstation.  The §4 installed-files
optimization covers ``/bin`` and ``/lib/tex`` with two cover leases
extended by periodic multicast — the server keeps no per-client record —
and installing a new latex version is a *delayed update*: the server just
stops announcing the cover and waits one term.

Run:  python examples/document_production.py
"""

from repro import FixedTermPolicy, build_cluster, install_tree

TERM = 10.0


def main() -> None:
    datums = {}

    def setup(store):
        datums.update(install_tree(store, "/bin", {"latex": b"latex-3.0"}))
        datums.update(install_tree(store, "/lib/tex", {"article.sty": b"style-v1"}))
        store.namespace.mkdir("/home")
        store.create_file("/home/thesis.tex", b"\\chapter{Leases}")
        datums["/home/thesis.tex"] = store.file_datum("/home/thesis.tex")

    cluster = build_cluster(
        n_clients=4,
        policy=FixedTermPolicy(TERM),
        setup_store=setup,
        cover_term=TERM,
    )
    latex = datums["/bin/latex"]
    style = datums["/lib/tex/article.sty"]
    thesis = datums["/home/thesis.tex"]
    workstation = cluster.clients[0]
    others = cluster.clients[1:]

    print("== everyone loads the latex binary once ==")
    for client in cluster.clients:
        result = cluster.run_until_complete(client, client.read(latex))
        print(f"   {client.host.name}: loaded in {result.latency * 1e3:.2f} ms")
    print(f"   server lease records for installed files: "
          f"{cluster.server.engine.table.lease_count()} (covers need none)")

    print("== an edit-compile loop on the workstation ==")
    for iteration in range(3):
        cluster.run(until=cluster.kernel.now + 37.0)  # think time between runs
        # latex run: load binary + style (cover leases: still valid thanks
        # to the multicast announcements), read the source, write temps
        t0 = cluster.kernel.now
        for datum in (latex, style, thesis):
            cluster.run_until_complete(workstation, workstation.read(datum))
        workstation.engine.write_temp("/tmp/thesis.aux", b"aux data")
        workstation.engine.write_temp("/tmp/thesis.log", b"log data")
        elapsed = cluster.kernel.now - t0
        print(f"   run {iteration + 1}: binary+style+source in {elapsed * 1e3:.2f} ms "
              f"({'all cached' if elapsed < 1e-9 else 'source refetched'})")
        # saving the editor buffer is a write-through of the user file
        cluster.run_until_complete(
            workstation, workstation.write(thesis, b"\\chapter{Leases}%% draft")
        )

    extensions = cluster.network.stats["server"].received.get("lease/extend", 0)
    print(f"   client extension requests so far: {extensions} "
          "(installed files never need any)")

    print("== installing a new latex version: delayed update ==")
    admin = others[0]
    result = cluster.run_until_complete(
        admin, admin.write(latex, b"latex-3.1"), limit=60.0
    )
    print(
        f"   the server stopped announcing the /bin cover and waited "
        f"{result.latency:.1f} s; no callbacks to any of the "
        f"{len(cluster.clients)} clients, no reply implosion"
    )
    result = cluster.run_until_complete(workstation, workstation.read(latex), limit=60.0)
    print(f"   the workstation's next run loads {result.value[1]!r}")

    print()
    approvals = cluster.network.stats["server"].handled(["lease/approve"])
    print(f"approval callbacks for the installed update: {approvals}")
    print(f"temp files kept local: {len(workstation.engine.temp)} "
          f"({workstation.engine.temp.writes} writes never reached the server)")
    print(f"oracle: {cluster.oracle.reads_checked} reads checked, "
          f"clean={cluster.oracle.clean}")


if __name__ == "__main__":
    main()
