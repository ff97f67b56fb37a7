/* Compiled hot kernels: the march and the fractional Adams march.
 *
 * Same contracts, argument lists, floating-point operation order and
 * exceptions as jacobipc._kernels_py, which holds the reference semantics;
 * the two must stay bit-identical.  TIE_TOL and GUARD are read from that
 * module at import.  Buffer lengths are checked once per call, before any
 * element is read.
 *
 * march is the marching loop: per step one predictor sum of stencil
 * interpolants (interp_sum, the stencil rule of _kernels_py.stencil_plan as
 * a scalar loop), the rhs (a Python callable, called with Python floats),
 * the corrector sum resumed after the shared prefix or skipped, and the rhs
 * again.  interp_sum reports the prefix of nodes whose stencil ends left of
 * n+1 and so is the same in both phases, with the running total and reads
 * at its end, from which the corrector resumes; see stencil_plan for why the
 * resumed sum is bit-identical; node jn, the end node s = 1, is never
 * shared.  The pure twin plans its stencils a block of steps at a time; this
 * one runs the scalar loop twice a step, which is cheaper in C.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <errno.h>
#include <math.h>

static double TIE_TOL, GUARD;

/* Acquire a 1-d C-contiguous float64 buffer, with extra flags such as
 * PyBUF_WRITABLE. */
static int
get_buffer(PyObject *obj, Py_buffer *view, const char *name, int flags)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_FORMAT | PyBUF_C_CONTIGUOUS | flags) < 0)
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

/* One quadrature sum of stencil interpolants over nodes first <= j <
 * node_count, starting from total, on buffers the caller has checked and
 * with nodes in [-1, 1].  Fills out and returns 0, or sets an exception and
 * returns -1. */
typedef struct {
    double total, shared_total;
    long long reads, shared_reads;
    Py_ssize_t shared;
} interp_result;

static int
interp_sum(const double *fvals, Py_ssize_t n, const double *nodes, const double *weights,
           Py_ssize_t node_count, Py_ssize_t size, const double *bary, int corrector,
           Py_ssize_t first, double total, interp_result *out)
{
    Py_ssize_t np1 = n + 1;
    Py_ssize_t usable = corrector ? np1 + 1 : np1;
    Py_ssize_t ln = (size + 1) / 2, rn = size / 2;
    /* the shared-prefix test is le + rn <= np1; past the first failure, limit
     * rises to usable, which le never exceeds */
    Py_ssize_t limit = np1 - rn;
    Py_ssize_t shared = node_count;
    double shared_total = 0.0;
    long long reads = 0, shared_reads = 0;
    for (Py_ssize_t j = first; j < node_count; j++) {
        /* theta lies in [0, n+1], as the node lies in [-1, 1] */
        double theta = 0.5 * (1.0 + nodes[j]) * np1;
        double left = floor(theta + TIE_TOL);
        Py_ssize_t le = left < usable ? (Py_ssize_t)left + 1 : usable;
        if (le > limit) {
            shared = j;
            shared_total = total;
            shared_reads = reads;
            limit = usable;
        }
        Py_ssize_t start = le <= ln ? 0 : le + rn >= usable ? usable - size : le - ln;
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
            return -1;
        } else {
            total += weights[j] * (num / den);
            reads += size;
        }
    }
    out->total = total;
    out->reads = reads;
    out->shared = shared;
    out->shared_total = shared_total;
    out->shared_reads = shared_reads;
    return 0;
}

/* f = rhs(t, x) as a C double; returns -1 with the exception set, leaving *f
 * as it was, as the pure twins leave fc when the call or its conversion fails. */
static int
call_rhs(PyObject *rhs, double t, double x, double *f)
{
    PyObject *args[2] = {PyFloat_FromDouble(t), PyFloat_FromDouble(x)};
    PyObject *value = NULL;
    if (args[0] != NULL && args[1] != NULL)
        value = PyObject_Vectorcall(rhs, args, 2, NULL);
    Py_XDECREF(args[0]);
    Py_XDECREF(args[1]);
    if (value == NULL)
        return -1;
    double converted = PyFloat_AsDouble(value);
    Py_DECREF(value);
    if (converted == -1.0 && PyErr_Occurred())
        return -1;
    *f = converted;
    return 0;
}

static PyObject *
march(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"rhs", "x", "fc", "base", "origin", "h", "alpha", "pref",
                             "nodes", "weights", "bary", NULL};
    PyObject *rhs, *objs[6];
    double origin, h, alpha, pref;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOddddOOO:march", kwlist, &rhs,
                                     &objs[0], &objs[1], &objs[2], &origin, &h, &alpha, &pref,
                                     &objs[3], &objs[4], &objs[5]))
        return NULL;

    Py_buffer bufs[6];
    const char *names[6] = {"x", "fc", "base", "nodes", "weights", "bary"};
    int got = 0;
    PyObject *result = NULL;
    for (; got < 6; got++)
        if (get_buffer(objs[got], &bufs[got], names[got], got < 2 ? PyBUF_WRITABLE : 0) < 0)
            goto done;

    double *x = bufs[0].buf, *fc = bufs[1].buf;
    const double *base = bufs[2].buf, *nodes = bufs[3].buf, *weights = bufs[4].buf;
    const double *bary = bufs[5].buf;
    Py_ssize_t n_steps = length(&bufs[0]) - 1, size = length(&bufs[5]);
    Py_ssize_t jn = length(&bufs[3]) - 1;
    if (length(&bufs[1]) != n_steps + 1 || length(&bufs[2]) != n_steps + 1
            || length(&bufs[4]) != jn + 1 || jn < 1 || size < 2) {
        PyErr_SetString(PyExc_IndexError, "march needs len(fc) == len(base) == len(x), "
                        "len(weights) == len(nodes) >= 2 and len(bary) >= 2");
        goto done;
    }
    for (Py_ssize_t j = 0; j <= jn; j++)
        if (!(fabs(nodes[j]) <= 1.0)) {
            PyErr_SetString(PyExc_ValueError, "quadrature nodes must lie in [-1, 1]");
            goto done;
        }

    double end_w = weights[jn];
    long long rhs_evals = 0, interp_evals = 0, value_reads = 0;
    Py_ssize_t count = n_steps + 1;
    for (Py_ssize_t n = size - 1; n < n_steps; n++) {
        double t1 = origin + (double)(n + 1) * h;
        double span = 0.5 * (double)(n + 1) * h;
        double scale = pow(span, alpha);
        if (isinf(scale) && isfinite(span)) {  /* as float ** reports an overflow */
            errno = ERANGE;
            PyErr_SetFromErrno(PyExc_OverflowError);
            goto done;
        }
        scale = pref * scale;
        double base_n = base[n + 1];
        interp_result pred;
        if (interp_sum(fc, n, nodes, weights, jn + 1, size, bary, 0, 0, 0.0, &pred) < 0)
            goto done;
        interp_evals += jn + 1;
        value_reads += pred.reads;
        double x_pred = base_n + scale * pred.total;
        if (!(fabs(x_pred) <= GUARD)) {
            count = n + 1;
            break;
        }
        double f_pred;
        if (call_rhs(rhs, t1, x_pred, &f_pred) < 0)
            goto done;
        rhs_evals++;
        fc[n + 1] = f_pred;
        /* the corrector resumes the predictor's running total after the
         * shared prefix, or is skipped when every interior node is shared */
        double resumed = pred.shared_total;
        long long resumed_reads = pred.shared_reads;
        if (pred.shared < jn) {
            interp_result corr;
            if (interp_sum(fc, n, nodes, weights, jn, size, bary, 1, pred.shared, resumed,
                           &corr) < 0)
                goto done;
            resumed = corr.total;
            resumed_reads += corr.reads;
        }
        interp_evals += jn;
        value_reads += resumed_reads;
        double x_new = base_n + scale * (resumed + end_w * f_pred);
        if (!(fabs(x_new) <= GUARD)) {
            count = n + 1;
            break;
        }
        x[n + 1] = x_new;
        if (call_rhs(rhs, t1, x_new, &fc[n + 1]) < 0)
            goto done;
        rhs_evals++;
    }
    result = Py_BuildValue("(nLLL)", count, rhs_evals, interp_evals, value_reads);
done:
    while (got-- > 0)
        PyBuffer_Release(&bufs[got]);
    return result;
}

static PyObject *
adams_march(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"rhs", "x", "fc", "base", "h", "alpha", "c_pred", "c_corr", NULL};
    PyObject *rhs, *objs[3];
    double h, alpha, c_pred, c_corr;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOdddd:adams_march", kwlist, &rhs,
                                     &objs[0], &objs[1], &objs[2], &h, &alpha, &c_pred, &c_corr))
        return NULL;

    Py_buffer bufs[3];
    const char *names[3] = {"x", "fc", "base"};
    int got = 0;
    PyObject *result = NULL;
    for (; got < 3; got++)
        if (get_buffer(objs[got], &bufs[got], names[got], got < 2 ? PyBUF_WRITABLE : 0) < 0)
            goto done;

    double *x = bufs[0].buf, *fc = bufs[1].buf;
    const double *base = bufs[2].buf;
    Py_ssize_t n_steps = length(&bufs[0]) - 1;
    if (length(&bufs[1]) != n_steps + 1 || length(&bufs[2]) != n_steps + 1 || n_steps < 0) {
        PyErr_SetString(PyExc_IndexError, "adams_march needs len(fc) == len(base) == len(x) >= 1");
        goto done;
    }

    double ap1 = alpha + 1.0;
    long long rhs_evals = 0, history_reads = 0;
    Py_ssize_t n = 0;  /* a step that leaves the guard ends the march at n + 1 entries */
    for (; n < n_steps; n++) {
        double t1 = (double)(n + 1) * h;
        history_reads += 2 * (n + 1);
        double pred = 0.0, corr = (pow(n, ap1) - (n - alpha) * pow(n + 1, alpha)) * fc[0];
        double pm1 = 0.0, qm1 = 0.0, qm = 1.0;
        for (Py_ssize_t m = 1; m <= n; m++) {  /* the term of f_{n+1-m} */
            double pm = pow(m, alpha), qp = pow(m + 1, ap1), fj = fc[n + 1 - m];
            pred += (pm - pm1) * fj;
            corr += (qp - 2.0 * qm + qm1) * fj;
            pm1 = pm;
            qm1 = qm;
            qm = qp;
        }
        pred += (pow(n + 1, alpha) - pm1) * fc[0];
        double x_pred = base[n + 1] + c_pred * pred;
        if (!(fabs(x_pred) <= GUARD))
            break;
        double f_pred;
        if (call_rhs(rhs, t1, x_pred, &f_pred) < 0)
            goto done;
        rhs_evals++;
        double x_new = base[n + 1] + c_corr * (corr + f_pred);
        if (!(fabs(x_new) <= GUARD))
            break;
        x[n + 1] = x_new;
        if (call_rhs(rhs, t1, x_new, &fc[n + 1]) < 0)
            goto done;
        rhs_evals++;
    }
    result = Py_BuildValue("(nLL)", n + 1, rhs_evals, history_reads);
done:
    while (got-- > 0)
        PyBuffer_Release(&bufs[got]);
    return result;
}

static PyMethodDef methods[] = {
    {"march", (PyCFunction)(void (*)(void))march,
     METH_VARARGS | METH_KEYWORDS, "Predict and correct every step of a trajectory in place."},
    {"adams_march", (PyCFunction)(void (*)(void))adams_march,
     METH_VARARGS | METH_KEYWORDS, "Run every fractional Adams PECE step of a trajectory in place."},
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
    const char *names[2] = {"TIE_TOL", "GUARD"};
    double *targets[2] = {&TIE_TOL, &GUARD};
    for (int i = 0; i < 2; i++) {
        PyObject *value = PyObject_GetAttrString(ref, names[i]);
        *targets[i] = value == NULL ? -1.0 : PyFloat_AsDouble(value);
        Py_XDECREF(value);
        if (*targets[i] == -1.0 && PyErr_Occurred()) {
            Py_DECREF(ref);
            return NULL;
        }
    }
    Py_DECREF(ref);

    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddObjectRef(m, "COMPILED", Py_True) < 0)
        Py_CLEAR(m);
    return m;
}
