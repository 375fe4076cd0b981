# repro-lint fixture: should FIRE unused-import.
# Imports that outlived the code that needed them: the serialiser the
# module no longer calls and an aliased name nothing reads still couple
# the module to their dependencies.
import pickle
from collections import OrderedDict as Ordered

import numpy as np


def positions(count):
    return np.arange(count, dtype=np.int64)
