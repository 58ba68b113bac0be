"""Run the public datum certificate that no CLI command reaches.

    python3 perfbench/validate_datum.py [--report R.json] DATUM.json

Builds ``MonomialDatum`` from the datum file and runs
``validate_datum(check_simplicity=True)``: the comodule axioms, trivial
coinvariants, the H-simplicity certificate, the xi contract and omega
normalisation.  Prints one line per check, writes the same report document
as the CLI's ``--report``, and exits like the CLI: 0 all checks pass, 1 a
check failed, 2 malformed input.
"""

from __future__ import annotations

import argparse
import sys

from dyntwist import cli
from dyntwist.datum import MonomialDatum


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", help="write a JSON report document here")
    parser.add_argument("datum")
    args = parser.parse_args(argv)
    try:
        spec, order = cli.datum_from_json(cli.read_json(args.datum))
        report = MonomialDatum(spec, order=order).validate_datum(check_simplicity=True)
    except (cli.InputError, cli.ScalarError, cli.StructureError, cli.ValidationError,
            cli.LinAlgError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return cli.EXIT_INPUT_ERROR
    return cli.finish(args, "validate-datum", [args.datum], report, [])


if __name__ == "__main__":
    sys.exit(main())
