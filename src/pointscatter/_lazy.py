"""One rule for the heavy dependencies: numpy and scipy load on first use.

The closed-form commands (``amplitude``, ``flow``, ``family``) are scalar
work of about 2 ms; importing numpy and scipy would cost a fresh process
several times that.  Modules that need them bind a stand-in at import time
and pay for the import only when one of its attributes is first read.
"""

import importlib.util
import sys


def load_on_first_use(name: str):
    """The module ``name``; its code runs when one of its attributes is first read.

    A module already imported comes back as it is.  Otherwise this registers
    an ``importlib.util.LazyLoader`` stand-in in ``sys.modules``, so a later
    ``import name`` anywhere gets the same object, and reading any attribute
    of it (``np.asarray``, ``scipy.special``, ``__version__``) imports the
    module in place.  After that the object is the plain module.

    Not safe for a first use from two threads at once: on Python 3.11 the
    stand-in turns into a plain module before the module's code has run, so
    a second thread may read it half built.  A threaded program imports
    numpy and scipy itself before it starts threads.
    """
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module
