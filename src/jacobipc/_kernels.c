/* Compiled hot kernels: stencil-interpolation quadrature sums and the
 * fractional Adams history sums.
 *
 * Same contracts, argument lists, floating-point operation order and
 * exceptions as jacobipc._kernels_py, which holds the reference semantics;
 * the two must stay bit-identical.  TIE_TOL is read from that module at
 * import.  Buffer lengths and the start node are checked once per call,
 * before any element is read.
 *
 * weighted_interp_sum returns (total, reads, J, shared_total, shared_reads):
 * the values it read, and the prefix of nodes whose stencil ends left of n+1
 * and so is the same in both phases, with the running total and reads at its
 * end, from which the corrector resumes (first, total).  See _kernels_py for
 * why the resumed sum is bit-identical.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

static double TIE_TOL;

/* Acquire a 1-d C-contiguous float64 buffer. */
static int
get_buffer(PyObject *obj, Py_buffer *view, const char *name)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0)
        return -1;
    const char *f = view->format;
    if (*f == '@' || *f == '=')
        f++;
    if (view->ndim == 1 && view->itemsize == 8 && f[0] == 'd' && f[1] == '\0')
        return 0;
    PyErr_Format(PyExc_ValueError, "%s must be a 1-d C-contiguous float64 buffer, got format '%s', %d-d",
                 name, view->format, view->ndim);
    PyBuffer_Release(view);
    return -1;
}

static Py_ssize_t
length(const Py_buffer *view)
{
    return view->len / view->itemsize;
}

static PyObject *
weighted_interp_sum(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"fvals", "n", "nodes", "weights", "node_count", "size",
                             "bary", "corrector", "first", "total", NULL};
    PyObject *fobj, *nobj, *wobj, *bobj;
    Py_ssize_t n, node_count, size, first = 0;
    int corrector;
    double total = 0.0;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OnOOnnOp|nd:weighted_interp_sum", kwlist,
                                     &fobj, &n, &nobj, &wobj, &node_count, &size,
                                     &bobj, &corrector, &first, &total))
        return NULL;

    Py_buffer bufs[4];
    PyObject *objs[4] = {fobj, nobj, wobj, bobj};
    const char *names[4] = {"fvals", "nodes", "weights", "bary"};
    int got = 0;
    PyObject *result = NULL;
    for (; got < 4; got++)
        if (get_buffer(objs[got], &bufs[got], names[got]) < 0)
            goto done;

    Py_ssize_t np1 = n + 1;
    Py_ssize_t usable = corrector ? np1 + 1 : np1;
    /* every stencil start then lies in [0, usable - size] */
    if (usable < size) {
        PyErr_Format(PyExc_IndexError, "stencil (size %zd) does not fit %zd usable f values", size, usable);
        goto done;
    }
    if (length(&bufs[0]) < usable || node_count < 0 || length(&bufs[1]) < node_count
            || length(&bufs[2]) < node_count || size < 0 || length(&bufs[3]) < size) {
        PyErr_SetString(PyExc_IndexError, "n, node_count or size exceeds its buffer");
        goto done;
    }
    if (first < 0 || first > node_count) {
        PyErr_Format(PyExc_IndexError, "start node %zd lies outside [0, %zd]", first, node_count);
        goto done;
    }

    const double *fvals = bufs[0].buf, *nodes = bufs[1].buf, *weights = bufs[2].buf;
    const double *bary = bufs[3].buf;
    Py_ssize_t ln = (size + 1) / 2, rn = size / 2;
    /* the shared-prefix test is le + rn <= np1; past the first failure, limit
     * rises to usable, which le never exceeds */
    Py_ssize_t limit = np1 - rn;
    Py_ssize_t shared = node_count;
    double shared_total = 0.0;
    long long reads = 0, shared_reads = 0;
    for (Py_ssize_t j = first; j < node_count; j++) {
        double theta = 0.5 * (1.0 + nodes[j]) * np1;
        double left = floor(theta + TIE_TOL);
        /* le = left + 1 clamped to [0, usable], without an out-of-range cast */
        Py_ssize_t le;
        if (left >= 0.0 && left < usable)
            le = (Py_ssize_t)left + 1;
        else if (isfinite(left))
            le = left < 0.0 ? 0 : usable;
        else {  /* raise what int(math.floor(theta)) raises */
            PyErr_Format(isnan(left) ? PyExc_ValueError : PyExc_OverflowError,
                         "cannot convert float %s to integer", isnan(left) ? "NaN" : "infinity");
            goto done;
        }
        if (le > limit) {
            shared = j;
            shared_total = total;
            shared_reads = reads;
            limit = usable;
        }
        Py_ssize_t start;
        if (le <= ln)
            start = 0;
        else if (corrector)
            start = le + rn >= np1 + 1 ? np1 + 1 - size : le - ln;
        else
            start = le + rn >= np1 ? np1 - size : le - ln;
        double x = theta - start;
        double num = 0.0, den = 0.0;
        Py_ssize_t hit = -1;
        for (Py_ssize_t k = 0; k < size; k++) {
            double d = x - k;
            if (-TIE_TOL < d && d < TIE_TOL) {
                hit = k;
                break;
            }
            double c = bary[k] / d;
            num += c * fvals[start + k];
            den += c;
        }
        if (hit >= 0) {
            total += weights[j] * fvals[start + hit];
            reads += hit + 1;
        } else if (den == 0.0) {
            PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
            goto done;
        } else {
            total += weights[j] * (num / den);
            reads += size;
        }
    }
    if (shared == node_count) {  /* every node is shared */
        shared_total = total;
        shared_reads = reads;
    }
    result = Py_BuildValue("(dLndL)", total, reads, shared, shared_total, shared_reads);
done:
    while (got-- > 0)
        PyBuffer_Release(&bufs[got]);
    return result;
}

static PyObject *
adams_step_sums(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"fvals", "n", "alpha", NULL};
    PyObject *fobj;
    Py_ssize_t n;
    double alpha;
    Py_buffer buf;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "Ond:adams_step_sums", kwlist,
                                     &fobj, &n, &alpha))
        return NULL;
    if (get_buffer(fobj, &buf, "fvals") < 0)
        return NULL;
    if (n < 0 || length(&buf) < n + 1) {
        PyErr_Format(PyExc_IndexError, "step %zd needs %zd f values, buffer has %zd",
                     n, n + 1, length(&buf));
        PyBuffer_Release(&buf);
        return NULL;
    }

    const double *fvals = buf.buf;
    double ap1 = alpha + 1.0;
    double pred = 0.0;
    double corr = (pow(n, ap1) - (n - alpha) * pow(n + 1, alpha)) * fvals[0];
    double pm1 = 0.0, qm1 = 0.0, qm = 1.0;
    for (Py_ssize_t m = 1; m <= n; m++) {
        double pm = pow(m, alpha);
        double qp = pow(m + 1, ap1);
        double fj = fvals[n + 1 - m];
        pred += (pm - pm1) * fj;
        corr += (qp - 2.0 * qm + qm1) * fj;
        pm1 = pm;
        qm1 = qm;
        qm = qp;
    }
    pred += (pow(n + 1, alpha) - pm1) * fvals[0];
    PyBuffer_Release(&buf);
    return Py_BuildValue("(dd)", pred, corr);
}

static PyMethodDef methods[] = {
    {"weighted_interp_sum", (PyCFunction)(void (*)(void))weighted_interp_sum,
     METH_VARARGS | METH_KEYWORDS, "Quadrature-weighted sum of stencil interpolations of the f history."},
    {"adams_step_sums", (PyCFunction)(void (*)(void))adams_step_sums,
     METH_VARARGS | METH_KEYWORDS, "History sums (pred, corr) for one fractional Adams PECE step."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "Compiled hot kernels; jacobipc._kernels_py holds the reference semantics.", -1, methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    PyObject *ref = PyImport_ImportModule("jacobipc._kernels_py");
    if (ref == NULL)
        return NULL;
    PyObject *tol = PyObject_GetAttrString(ref, "TIE_TOL");
    Py_DECREF(ref);
    if (tol == NULL)
        return NULL;
    TIE_TOL = PyFloat_AsDouble(tol);
    Py_DECREF(tol);
    if (TIE_TOL == -1.0 && PyErr_Occurred())
        return NULL;

    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddObjectRef(m, "COMPILED", Py_True) < 0)
        Py_CLEAR(m);
    return m;
}
