"""Finite and limiting multidimensional scaling on metric measure spaces.

Pipeline: build or sample a metric measure space (``spaces``), double-center
its squared-distance kernel and decompose (``mds_core``), compare against
analytic sphere spectra (``sphere_spectral``), quantify stability under
couplings (``stability``), and merge product spectra (``products``). The
``mdslab`` CLI drives the same operations from config files.
"""

__version__ = "0.1.0"
