"""python -m pqcli. Run as the main module, it imports pqcli.cli with the
collector off; cli.run freezes what that built and turns it back on."""

import gc

if __name__ == "__main__":
    gc.disable()
    from .cli import run
    run()
