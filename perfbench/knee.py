"""Sweeps the offered rate of ``serve_mixed`` to locate the daemon's knee.

    python3 perfbench/knee.py <seconds> <seed> <rate> [<rate> ...]

Each rate (request events per second; a ``dup`` event is two requests)
gets one untraced run through ``perfbench/run.sh --rate``. For each it
prints the offered and completed request rates, the latency quartiles,
how late the generator ran and the share of requests done within the
latency limit. Below the knee, completed tracks offered and p99 stays
flat; past it, p99 and generator lateness climb. Run from the root of a
checkout.
"""

import json
import subprocess
import sys


def main():
    seconds, seed = sys.argv[1], sys.argv[2]
    rates = sys.argv[3:]
    print(f"{'events/s':>9} {'offered/s':>10} {'done/s':>8} {'p50_ms':>8} {'p99_ms':>8} "
          f"{'late_p99':>9} {'slo_ok':>7}")
    for rate in rates:
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", "serve_mixed", "--seed", seed,
             "--seconds", seconds, "--trace", "0", "--rate", rate],
            capture_output=True, text=True, check=False,
        )
        lines = out.stdout.strip().splitlines()
        details = next((json.loads(l[len("details: "):]) for l in lines
                        if l.startswith("details: ")), None)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{rate:>9}: no result (exit {out.returncode})\n{out.stderr[-2000:]}")
            sys.exit(1)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        offered = details["requests"] / float(seconds)
        print(f"{rate:>9} {offered:>10.1f} {details['done_per_s']:>8.1f} {m['p50_ms']:>8.1f} "
              f"{m['p99_ms']:>8.1f} {details['generator_late_ms_p99']:>9.1f} "
              f"{m['slo_ok_frac']:>7.3f}", flush=True)


if __name__ == "__main__":
    main()
